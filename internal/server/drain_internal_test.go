package server

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestShutdownWaitsForLateReader pins the drain barrier against a slow
// handshake goroutine: a session registered before Shutdown began, but
// whose reader has not started yet (handleConn was descheduled between
// the HelloAck and starting it), must still be waited for and sealed —
// Shutdown may not stop the verifiers underneath it.
func TestShutdownWaitsForLateReader(t *testing.T) {
	art, err := pipeline.Compile(workload.ByName("telnetd").Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	store := NewImageStore(nil)
	store.Add("late", art.Image)
	srv := New(store, Config{})

	cc, sc := net.Pipe()
	defer cc.Close()
	sealed := make(chan struct{})
	go func() { // the client: read until the daemon closes the session
		io.Copy(io.Discard, cc)
		close(sealed)
	}()
	ss := &session{srv: srv, conn: sc, rd: wire.NewReader(sc), m: ipds.New(art.Image, srv.cfg.IPDS), started: time.Now()}
	if !srv.register(ss) {
		t.Fatal("register refused before Shutdown")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(ctx) }()
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) before the registered session's reader ran", err)
	case <-time.After(100 * time.Millisecond):
	}

	// The handshake goroutine resumes, as handleConn does.
	ss.v.adopt(ss)
	go ss.readLoop()
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-sealed:
	case <-time.After(5 * time.Second):
		t.Fatal("the late session was never closed")
	}
}
