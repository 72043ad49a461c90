package server

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestSpanRingSlotSizes pins the ring entries at four words: the span
// record pointer is their only per-batch timing state, so a session's
// 64-slot ring costs 2 KiB.
func TestSpanRingSlotSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(task{}); got != 32 {
		t.Errorf("sizeof(task) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(frameBuf{}); got != 32 {
		t.Errorf("sizeof(frameBuf) = %d, want 32", got)
	}
}

// failConn is a discardConn whose writes all fail, counting attempts.
type failConn struct {
	discardConn
	writes *atomic.Int64
}

func (c failConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return 0, errors.New("peer gone")
}

// TestSpanFailedWriteDiscards pins the commit rule: a span record
// finishes only when its batch's ack bytes reach the wire. Two
// sessions share one core writer, each verifying two stamped batches;
// the healthy one commits both records and observes both waits, the
// one whose conn refuses every write commits nothing and observes no
// write wait.
func TestSpanFailedWriteDiscards(t *testing.T) {
	w := workload.ByName("telnetd")
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	trace := ipdsclient.Capture(art, w.Sessions()[0])
	if len(trace) > 256 {
		trace = trace[:256]
	}
	store := NewImageStore(nil)
	store.Add("span", art.Image)
	reg := obs.NewRegistry()
	srv := New(store, Config{Reg: reg, DisableIncidents: true})

	// As in BenchmarkVerifyBatchIncident, the test goroutine borrows
	// verifier 0's writer ring: that verifier owns no sessions, so the
	// test is the ring's sole producer until Shutdown.
	v := srv.verifiers[0]
	var writes atomic.Int64
	newSession := func(id uint64, conn net.Conn) *session {
		return &session{id: id, srv: srv, conn: conn, v: v, m: ipds.New(art.Image, srv.cfg.IPDS), started: time.Now()}
	}
	good := newSession(1, discardConn{})
	bad := newSession(2, failConn{writes: &writes})
	traceID := uint64(100)
	for _, ss := range []*session{good, bad, good, bad} {
		sp := srv.spanGet()
		traceID++
		sp.TraceID, sp.Session, sp.ReadNs = traceID, ss.id, nowNs()
		bt := srv.batchPool.Get().(*wire.Batch)
		bt.Events = append(bt.Events[:0], trace...)
		srv.verifyBatch(v, ss, task{b: bt, sp: sp})
	}
	// Close both sessions as finish does: the writer flushes a session
	// on its close op, never on its own stop op.
	v.send(writeOp{s: good, close: true})
	v.send(writeOp{s: bad, close: true})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if writes.Load() == 0 {
		t.Fatal("the failing conn was never written to; the test exercised nothing")
	}
	spans := srv.TraceSpans()
	if len(spans) != 2 {
		t.Fatalf("committed %d spans, want the healthy session's 2: %+v", len(spans), spans)
	}
	for _, sp := range spans {
		if sp.Session != good.id {
			t.Errorf("failed session %d committed span %+v", bad.id, sp)
		}
	}
	for _, h := range []string{"server_queue_wait_ns", "server_write_wait_ns"} {
		if got := reg.Histogram(h).Count(); got != 2 {
			t.Errorf("%s count = %d, want 2 (the healthy session's batches only)", h, got)
		}
	}
}
