package server_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ipdsclient"
	"repro/internal/server"
	"repro/internal/wire"
)

// sendTraced drives one session with every batch stamped and returns
// the number of event batches the client flushed.
func sendTraced(t *testing.T, w *testWorld, program string, batch, sample int) int {
	t.Helper()
	trace := ipdsclient.Capture(w.art, nil)
	c, err := ipdsclient.Dial(ipdsclient.Config{
		Addr: w.addr, Image: w.hash, Program: program,
		Batch: batch, TraceSample: sample,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return (len(trace) + batch - 1) / batch
}

// TestTraceSpansE2E pins the daemon half of the trace plane: a client
// stamping every batch produces exactly one committed span per event
// batch, each with a complete, monotonic stage chain whose wire leg
// starts at the client's origin stamp; per-session trace ids arrive in
// send order; and TraceE2E derives nonzero quantiles from the records.
func TestTraceSpansE2E(t *testing.T) {
	w := startWorld(t, server.Config{TraceRing: 1024})
	t0 := time.Now().UnixNano()
	batches := sendTraced(t, w, "traced", 8, 1)
	w.shut(t) // spans commit on the core writers; drain flushes them all

	spans := w.srv.TraceSpans()
	if len(spans) != batches {
		t.Fatalf("committed %d spans for %d event batches", len(spans), batches)
	}
	lastID := map[uint64]uint64{}
	for _, sp := range spans {
		if sp.TraceID == 0 || sp.Events == 0 {
			t.Fatalf("incomplete span record: %+v", sp)
		}
		if sp.OriginNs < t0 || sp.OriginNs > sp.ReadNs {
			t.Errorf("wire leg not monotonic: origin=%d read=%d", sp.OriginNs, sp.ReadNs)
		}
		if !(sp.ReadNs <= sp.DequeueNs && sp.DequeueNs <= sp.VerifyEndNs &&
			sp.VerifyEndNs <= sp.OfferEndNs && sp.OfferEndNs <= sp.AckNs) {
			t.Errorf("span chain not monotonic: %+v", sp)
		}
		// One session, one reader, one core: ids commit in send order.
		if prev, ok := lastID[sp.Session]; ok && sp.TraceID != prev+1 {
			t.Errorf("session %d: trace id %d after %d", sp.Session, sp.TraceID, prev)
		}
		lastID[sp.Session] = sp.TraceID
	}
	p50, p99 := w.srv.TraceE2E()
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("TraceE2E = %d/%d", p50, p99)
	}
}

// TestTraceSamplingAndDisable pins the opt-in contracts: an unstamped
// client leaves the rings untouched, 1-in-N stamping commits only the
// sampled batches, and TraceRing < 0 disables the plane entirely even
// for stamping clients.
func TestTraceSamplingAndDisable(t *testing.T) {
	w := startWorld(t, server.Config{TraceRing: 1024})
	sendTraced(t, w, "untraced", 8, 0)
	if n := len(w.srv.TraceSpans()); n != 0 {
		t.Fatalf("unstamped client committed %d spans", n)
	}
	batches := sendTraced(t, w, "sampled", 8, 4)
	w.shut(t)                 // commits happen on the core writers; drain flushes them
	want := (batches + 3) / 4 // flushes 0, 4, 8, … carry the stamp
	if n := len(w.srv.TraceSpans()); n != want {
		t.Fatalf("1-in-4 sampling committed %d spans for %d batches, want %d", n, batches, want)
	}
	if p50, p99 := w.srv.TraceE2E(); p50 <= 0 || p99 < p50 {
		t.Fatalf("TraceE2E = %d/%d", p50, p99)
	}

	off := startWorld(t, server.Config{TraceRing: -1})
	sendTraced(t, off, "traced", 8, 1)
	if n := len(off.srv.TraceSpans()); n != 0 {
		t.Fatalf("TraceRing<0 daemon committed %d spans", n)
	}
}

// TestTraceHandler pins the HTTP surface: /debug/trace serves a Chrome
// trace-event array covering every daemon-side stage plus the wire
// leg, and ?spans=1 serves the raw records.
func TestTraceHandler(t *testing.T) {
	w := startWorld(t, server.Config{TraceRing: 1024})
	sendTraced(t, w, "traced", 8, 1)
	w.shut(t)

	rec := httptest.NewRecorder()
	w.srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	var evs []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Tid  int     `json:"tid"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	stages := map[string]int{}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Ts < 0 || ev.Dur < 0 {
			t.Fatalf("malformed trace event: %+v", ev)
		}
		stages[ev.Name]++
	}
	for _, name := range []string{"wire", "queue_wait", "verify", "offer", "write_ack"} {
		if stages[name] == 0 {
			t.Errorf("trace document lacks %q stage events (have %v)", name, stages)
		}
	}

	rec = httptest.NewRecorder()
	w.srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?spans=1", nil))
	var doc struct {
		Spans []server.SpanRec `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("invalid spans JSON: %v", err)
	}
	if len(doc.Spans) == 0 || doc.Spans[0].TraceID == 0 {
		t.Fatalf("spans document empty or unstamped: %+v", doc.Spans)
	}
}

// TestSpanE2EFallback pins the latency definition: origin-based when
// the client stamped a plausible clock, daemon read→ack otherwise.
func TestSpanE2EFallback(t *testing.T) {
	withOrigin := server.SpanRec{OriginNs: 100, ReadNs: 400, AckNs: 600}
	if got := withOrigin.E2ENs(); got != 500 {
		t.Fatalf("origin-based e2e = %d, want 500", got)
	}
	skewed := server.SpanRec{OriginNs: 700, ReadNs: 400, AckNs: 600}
	if got := skewed.E2ENs(); got != 200 {
		t.Fatalf("skewed-clock fallback e2e = %d, want 200", got)
	}
	none := server.SpanRec{ReadNs: 400, AckNs: 600}
	if got := none.E2ENs(); got != 200 {
		t.Fatalf("originless e2e = %d, want 200", got)
	}
}

// sendRepeated drives one session with exactly batches full batches
// of the captured trace, repeated as needed, stamping every sample-th
// flush.
func sendRepeated(t *testing.T, w *testWorld, batch, sample, batches int) {
	t.Helper()
	one := ipdsclient.Capture(w.art, nil)
	var trace []wire.Event
	for len(trace) < batches*batch {
		trace = append(trace, one...)
	}
	trace = trace[:batches*batch]
	c, err := ipdsclient.Dial(ipdsclient.Config{
		Addr: w.addr, Image: w.hash, Program: "repeated",
		Batch: batch, TraceSample: sample,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(trace...); err != nil {
		t.Fatalf("send: %v", err)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSpanSamplingContract pins the daemon's own 1-in-64 sampler, which
// rides the same span records as client tracing: unstamped traffic
// fills both wait histograms with one observation per 64 batches of a
// session (the first included) and commits nothing to the trace ring;
// a client stamping every batch makes every batch an observation; and
// TraceRing < 0 disables only the ring, never the wait histograms.
// The session is 5·64+1 batches long, so a sampler that skipped the
// first batch would come up one observation short.
func TestSpanSamplingContract(t *testing.T) {
	const batch, n = 2, 5*64 + 1
	cases := []struct {
		name      string
		ring      int
		sample    int
		everyOne  bool // one observation per batch, not per 64
		wantSpans bool
	}{
		{name: "unstamped", ring: 1024, sample: 0},
		{name: "stamped", ring: 1024, sample: 1, everyOne: true, wantSpans: true},
		{name: "ring-disabled", ring: -1, sample: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := startWorld(t, server.Config{TraceRing: tc.ring})
			sendRepeated(t, w, batch, tc.sample, n)
			w.shut(t) // records finish on the core writers; drain flushes them
			if got := w.reg.Counter("server_batches_total").Value(); got != uint64(n) {
				t.Fatalf("server_batches_total = %d, want %d", got, n)
			}
			want := uint64((n + 63) / 64)
			if tc.everyOne {
				want = uint64(n)
			}
			for _, h := range []string{"server_queue_wait_ns", "server_write_wait_ns"} {
				if got := w.reg.Histogram(h).Count(); got != want {
					t.Errorf("%s count = %d over %d batches, want %d", h, got, n, want)
				}
			}
			spans := len(w.srv.TraceSpans())
			if tc.wantSpans && spans != n {
				t.Errorf("committed %d spans for %d stamped batches", spans, n)
			}
			if !tc.wantSpans && spans != 0 {
				t.Errorf("committed %d spans; daemon-sampled records must not reach the ring", spans)
			}
		})
	}
}
