package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// spanLimit caps the spans one traced run keeps in memory; later spans
// are counted as dropped. Per-layer metrics never depend on the log (the
// code that records a span also accumulates its own totals), so a cap
// only thins the Chrome trace and the self-time table.
const spanLimit = 200_000

// spanRec is one benchmark-side span: a call (or a pass of calls) into
// one layer, timed from outside the layer.
type spanRec struct {
	Name   string
	ID     uint64
	Parent uint64 // 0 = root
	Tid    int    // track: 0 = main goroutine, i+1 = session i's sender
	Start  int64  // unix ns
	End    int64
}

// spanLog keeps a traced run's spans in memory until the run ends. A
// nil *spanLog is a valid, free no-op log.
type spanLog struct {
	mu      sync.Mutex
	recs    []spanRec
	next    uint64
	dropped int
	daemon  []server.SpanRec
}

func newSpanLog() *spanLog { return &spanLog{} }

// span is an open span; end records it.
type span struct {
	l      *spanLog
	name   string
	id     uint64
	parent uint64
	tid    int
	start  time.Time
}

// start opens a span; its id is usable as the parent of spans opened
// before it ends.
func (l *spanLog) start(name string, parent uint64, tid int) span {
	if l == nil {
		return span{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return span{l: l, name: name, id: id, parent: parent, tid: tid, start: time.Now()}
}

func (s span) end() {
	if s.l == nil {
		return
	}
	s.l.add(spanRec{Name: s.name, ID: s.id, Parent: s.parent, Tid: s.tid,
		Start: s.start.UnixNano(), End: time.Now().UnixNano()})
}

// record logs an already-timed call.
func (l *spanLog) record(name string, parent uint64, tid int, from, to time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	l.add(spanRec{Name: name, ID: id, Parent: parent, Tid: tid, Start: from.UnixNano(), End: to.UnixNano()})
}

func (l *spanLog) add(r spanRec) {
	l.mu.Lock()
	if len(l.recs) < spanLimit {
		l.recs = append(l.recs, r)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// addDaemon merges the daemon's own committed span records.
func (l *spanLog) addDaemon(recs []server.SpanRec) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.daemon = append(l.daemon, recs...)
	l.mu.Unlock()
}

// stage is one interval of a daemon span record.
type stage struct {
	name     string
	from, to int64
}

// daemonStages names the per-stage intervals of a daemon span record,
// in pipeline order. The names are the per-layer metric stems.
func daemonStages(r server.SpanRec) [4]stage {
	return [4]stage{
		{"server.read_to_dequeue", r.ReadNs, r.DequeueNs},
		{"server.verify", r.DequeueNs, r.VerifyEndNs},
		{"server.offer", r.VerifyEndNs, r.OfferEndNs},
		{"server.write", r.OfferEndNs, r.AckNs},
	}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the log as Chrome trace-event JSON (chrome://tracing,
// Perfetto): pid 1 holds the benchmark's spans, pid 2 the daemon's
// per-stage records, one track per verifier core.
func (l *spanLog) writeChrome(path string) error {
	var t0 int64
	for _, r := range l.recs {
		if t0 == 0 || r.Start < t0 {
			t0 = r.Start
		}
	}
	us := func(ns int64) float64 { return float64(ns-t0) / 1e3 }
	evs := make([]chromeEvent, 0, len(l.recs)+4*len(l.daemon))
	for _, r := range l.recs {
		evs = append(evs, chromeEvent{Name: r.Name, Ph: "X", Ts: us(r.Start), Dur: float64(r.End-r.Start) / 1e3,
			Pid: 1, Tid: r.Tid, Args: map[string]any{"id": r.ID, "parent": r.Parent}})
	}
	for _, d := range l.daemon {
		for _, st := range daemonStages(d) {
			if st.from <= 0 || st.to < st.from {
				continue
			}
			evs = append(evs, chromeEvent{Name: st.name, Ph: "X", Ts: us(st.from), Dur: float64(st.to-st.from) / 1e3,
				Pid: 2, Tid: d.Core, Args: map[string]any{"trace_id": d.TraceID, "session": d.Session, "alarms": d.Alarms}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTime is one span name's aggregate: how often it ran, its total
// wall time and its self time (wall time minus the part its child spans
// cover).
type layerTime struct {
	count       int
	total, self time.Duration
}

// selfTimes aggregates the log by span name. Daemon stage records have
// no children, so their self time is their duration.
func (l *spanLog) selfTimes() map[string]*layerTime {
	kids := map[uint64][][2]int64{}
	for _, r := range l.recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], [2]int64{r.Start, r.End})
		}
	}
	out := map[string]*layerTime{}
	add := func(name string, total, self int64) {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		lt.count++
		lt.total += time.Duration(total)
		lt.self += time.Duration(self)
	}
	for _, r := range l.recs {
		add(r.Name, r.End-r.Start, r.End-r.Start-covered(kids[r.ID], r.Start, r.End))
	}
	for _, d := range l.daemon {
		for _, st := range daemonStages(d) {
			if st.from > 0 && st.to >= st.from {
				add(st.name, st.to-st.from, st.to-st.from)
			}
		}
	}
	return out
}

// covered is the length of the union of ivs clipped to [from, to].
func covered(ivs [][2]int64, from, to int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := from
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], to)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// printSelfTimes prints every span name's count, total and self time,
// largest self time first.
func (l *spanLog) printSelfTimes(lts map[string]*layerTime) {
	names := make([]string, 0, len(lts))
	for n := range lts {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lts[names[i]].self > lts[names[j]].self })
	fmt.Printf("# %-32s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		lt := lts[n]
		fmt.Printf("# %-32s %9d %12.3f %12.3f\n", n, lt.count,
			float64(lt.total)/1e6, float64(lt.self)/1e6)
	}
	if l.dropped > 0 {
		fmt.Printf("# (%d spans past the %d-span cap were not kept)\n", l.dropped, spanLimit)
	}
}
