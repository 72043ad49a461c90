package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/server"
	"repro/internal/tables"
	"repro/internal/wire"
	"repro/internal/workload"
)

const (
	servedProgram = "telnetd"
	frameEvents   = 512 // events per Batch frame, the client default
	serveSessions = 2
	// warmFrames is each session's fixed warm-up (~1M events): it fills
	// the daemon's pools, rings and machine arenas before any timed op,
	// and makes set-up long enough that host noise does not decide it.
	warmFrames   = 2048
	floodRound   = 1 << 22 // events per serve-flood throughput round
	pacePeriod   = time.Millisecond
	tamperStride = 97
	// traceSample stamps every 8th batch of a traced serve-paced run
	// with a wire trace id, so the daemon records its per-stage spans.
	traceSample = 8
	pollEvery   = 2 * time.Millisecond
)

// frame is one Batch frame of a session's stream: its events, their
// pre-encoded wire form and how many of them are branches.
type frame struct {
	events   []wire.Event
	enc      []byte
	branches uint64
}

// session is one client connection and what it sent: its first frames
// are the warm-up, then it cycles through the timed block.
type session struct {
	c      *ipdsclient.Client
	sent   atomic.Uint64 // events handed to the client
	frames int           // frames sent; owned by the session's sender
	sendNs int64         // time inside SendEncoded, on traced runs
}

func (s *session) send(f *frame, encoded bool) error {
	s.sent.Add(uint64(len(f.events))) // before the send, so an ack never exceeds it
	var err error
	if encoded {
		err = s.c.SendEncoded(f.enc, uint64(len(f.events)), f.branches)
	} else {
		err = s.c.Send(f.events...) // re-encodes; stamps trace ids when the client samples
	}
	if err != nil {
		return err
	}
	s.frames++
	return nil
}

// serveEnv is one started daemon with its connected sessions.
type serveEnv struct {
	img    *tables.Image
	srv    *server.Server
	served chan error
	sess   []*session
	warm   []frame // each session's warm-up frames
	block  []frame // the timed stream, cycled: a whole number of passes
	// warmEnd and blockEnd are the cumulative events and branches at the
	// end of each warm and block frame.
	warmEnd, blockEnd []position
}

type position struct{ events, branches uint64 }

func ends(fs []frame) []position {
	out := make([]position, len(fs))
	var p position
	for i, f := range fs {
		p.events += uint64(len(f.events))
		p.branches += f.branches
		out[i] = p
	}
	return out
}

// frameEnd is the cumulative position at the end of a session's n-th
// frame.
func (e *serveEnv) frameEnd(n int) position {
	if n < len(e.warm) {
		return e.warmEnd[n]
	}
	n -= len(e.warm)
	w, b := e.warmEnd[len(e.warm)-1], e.blockEnd[len(e.block)-1]
	laps, in := uint64(n/len(e.block)), e.blockEnd[n%len(e.block)]
	return position{w.events + laps*b.events + in.events, w.branches + laps*b.branches + in.branches}
}

// frameOf maps a 1-based branch sequence number to the index of the
// frame of s that carried it.
func (e *serveEnv) frameOf(s *session, seq uint64) int {
	return sort.Search(s.frames, func(n int) bool { return e.frameEnd(n).branches >= seq })
}

// balancedPass captures one pass of the served program's benign session
// and closes the frames the program leaves open when it exits, so a
// session replaying the pass in a loop keeps a flat table stack instead
// of growing it by one frame per pass.
func balancedPass(imgs *images, tampered bool) []wire.Event {
	w := workload.ByName(servedProgram)
	evs := ipdsclient.Capture(imgs.arts[servedProgram], w.AttackSession)
	if tampered {
		evs = ipdsclient.Tamper(evs, tamperStride)
	}
	depth := 0
	for _, ev := range evs {
		switch ev.Kind {
		case wire.EvEnter:
			depth++
		case wire.EvLeave:
			depth--
		}
	}
	for ; depth > 0; depth-- {
		evs = append(evs, wire.Event{Kind: wire.EvLeave})
	}
	return evs
}

// frames cuts n events of the periodic stream pass,pass,..., starting
// at event offset from, into frames of frameEvents events (the last one
// shorter when n is not a multiple).
func frames(pass []wire.Event, from, n int) []frame {
	var out []frame
	for n > 0 {
		k := min(n, frameEvents)
		evs := make([]wire.Event, k)
		var br uint64
		for i := range evs {
			evs[i] = pass[(from+i)%len(pass)]
			if evs[i].Kind == wire.EvBranch {
				br++
			}
		}
		out = append(out, frame{events: evs, enc: wire.MustAppend(nil, wire.Batch{Events: evs}), branches: br})
		from += k
		n -= k
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// setupServe compiles the ten images, captures the served trace,
// starts the daemon on loopback, opens the sessions and runs the fixed
// warm-up. The seed sets where in the pass the first timed frame
// starts (the warm-up ends that many events into a pass), so seeds
// differ in how the trace falls across frame boundaries.
func setupServe(b *bench, tampered, stamp bool, parent uint64) (*serveEnv, error) {
	imgs, err := compileAll(b, parent)
	if err != nil {
		return nil, err
	}
	sp := b.spans.start("ipdsclient.Capture", parent, 0)
	pass := balancedPass(imgs, tampered)
	phase := int(uint64(b.seed) % uint64(len(pass)))
	warmN := warmFrames*frameEvents + phase
	period := len(pass) / gcd(len(pass), frameEvents) * frameEvents
	env := &serveEnv{
		img:   imgs.arts[servedProgram].Image,
		warm:  frames(pass, 0, warmN),
		block: frames(pass, warmN, period),
	}
	env.warmEnd, env.blockEnd = ends(env.warm), ends(env.block)
	sp.end()

	sp = b.spans.start("server.start", parent, 0)
	store := server.NewImageStore(nil)
	for _, name := range imgs.order {
		store.Add(name, imgs.arts[name].Image)
	}
	env.srv = server.New(store, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.srv.Shutdown(context.Background())
		return nil, err
	}
	env.served = make(chan error, 1)
	go func() { env.served <- env.srv.Serve(ln) }()
	sp.end()

	sp = b.spans.start("ipdsclient.Dial", parent, 0)
	sample := 0
	if stamp {
		sample = traceSample
	}
	for i := 0; i < serveSessions; i++ {
		c, err := ipdsclient.Dial(ipdsclient.Config{
			Addr:    ln.Addr().String(),
			Image:   env.img.Hash(),
			Program: fmt.Sprintf("%s#%d", servedProgram, i),
			Batch:   frameEvents,
			// Forensic contexts are counted, not decoded, so the
			// generator's allocator stays out of the daemon's numbers.
			DiscardCtx:  true,
			TraceSample: sample,
		})
		if err != nil {
			env.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		env.sess = append(env.sess, &session{c: c})
	}
	sp.end()

	sp = b.spans.start("warmup", parent, 0)
	defer sp.end()
	err = env.eachSession(func(i int, s *session) error {
		for j := range env.warm {
			if err := s.send(&env.warm[j], true); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = env.waitAcked(30 * time.Second)
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return env, nil
}

// eachSession runs f on every session concurrently and waits.
func (e *serveEnv) eachSession(f func(i int, s *session) error) error {
	errs := make([]error, len(e.sess))
	var wg sync.WaitGroup
	for i, s := range e.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = f(i, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// waitAcked waits until the daemon has acknowledged every event sent.
func (e *serveEnv) waitAcked(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		done := true
		for _, s := range e.sess {
			if se := s.c.ServerError(); se != nil {
				return fmt.Errorf("server error %s: %s", se.Code, se.Msg)
			}
			if s.c.Acked() != s.sent.Load() {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("events still unacknowledged after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the sessions and shuts the daemon down, waiting for
// every goroutine it started.
func (e *serveEnv) close() {
	for _, s := range e.sess {
		s.c.Drain()
		s.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	if e.served != nil {
		<-e.served
	}
}

// frameAt returns the n-th frame a session sent.
func (e *serveEnv) frameAt(n int) *frame {
	if n < len(e.warm) {
		return &e.warm[n]
	}
	return &e.block[(n-len(e.warm))%len(e.block)]
}

// check returns how many frames failed the serve oracles: every event
// sent must be acked, and each session's alarm stream must equal an
// in-process replay of exactly the events it sent
// (ipdsclient.ReplayLocalBatched on a machine configured as the daemon
// configures its own). Without replay, the expected stream is empty:
// serve-flood's benign trace must raise no alarm at all.
func (e *serveEnv) check(replay bool) (bad int64, alarms int) {
	cfg := ipds.DefaultConfig
	cfg.Recorder = ipds.DefaultRecorderDepth
	for _, s := range e.sess {
		wantBySeq := map[uint64]ipds.Alarm{}
		if replay {
			m := ipds.New(e.img, cfg)
			for n := 0; n < s.frames; n++ {
				for _, a := range ipdsclient.ReplayLocalBatched(m, e.frameAt(n).events, frameEvents) {
					wantBySeq[a.Seq] = a
				}
			}
		}
		got := s.c.Alarms()
		alarms += len(got)
		badFrames := map[int]bool{}
		var last uint64
		for _, g := range got {
			w, ok := wantBySeq[g.Seq]
			if !ok || g.Seq <= last || w.PC != g.PC || uint32(w.Slot) != g.Slot ||
				uint8(w.Expected) != g.Expected || w.Taken != g.Taken {
				badFrames[e.frameOf(s, g.Seq)] = true
			}
			delete(wantBySeq, g.Seq)
			last = g.Seq
		}
		for seq := range wantBySeq { // expected but never delivered
			badFrames[e.frameOf(s, seq)] = true
		}
		acked := s.c.Acked()
		for n := s.frames - 1; n >= 0 && e.frameEnd(n).events > acked; n-- {
			badFrames[n] = true
		}
		bad += int64(len(badFrames))
	}
	return bad, alarms
}

// acked is the events the daemon has acknowledged over all sessions.
func (e *serveEnv) acked() uint64 {
	var n uint64
	for _, s := range e.sess {
		n += s.c.Acked()
	}
	return n
}

func (e *serveEnv) framesSent() int64 {
	var n int64
	for _, s := range e.sess {
		n += int64(s.frames)
	}
	return n
}

// coreTotals sums the daemon's per-core counters.
type coreTotals struct {
	events, batches, verifyNs, parks, wakes, writerParks, stalls uint64
	ringHW, sessionsMax                                          int
}

func (e *serveEnv) coreTotals() coreTotals {
	var t coreTotals
	for _, cs := range e.srv.CoreStats() {
		t.events += cs.Events
		t.batches += cs.Batches
		t.verifyNs += cs.VerifyNs
		t.parks += cs.Parks
		t.wakes += cs.Wakes
		t.writerParks += cs.WriterParks
		t.stalls += cs.Stalls
		t.ringHW = max(t.ringHW, cs.RingHighWater)
		t.sessionsMax = max(t.sessionsMax, int(cs.SessionsTotal))
	}
	return t
}

// serveSegments runs a serve workload as reps independent segments.
// Each sets up a fresh daemon and sessions (timed, for setup_s),
// measures for dur/reps and tears down. On a 2-vCPU VM one daemon
// settles into a scheduling pattern that can hold its throughput or
// latency 10-20 % off for seconds at a time; several fresh daemons per
// run average those patterns out.
func serveSegments(b *bench, m *measured, dur time.Duration, reps int, tampered, stamp bool,
	measure func(env *serveEnv, d time.Duration) error) error {
	for r := 0; r < reps; r++ {
		b.probe()
		sp := b.spans.start("setup", 0, 0)
		t0 := time.Now()
		env, err := setupServe(b, tampered, stamp, sp.id)
		if err != nil {
			return err
		}
		m.setup = append(m.setup, time.Since(t0))
		sp.end()
		err = measure(env, dur/time.Duration(reps))
		env.close()
		if err != nil {
			return err
		}
	}
	return nil
}

type ackSample struct {
	t     time.Time
	acked uint64
}

// runFlood is serve-flood: both sessions replay the benign trace as
// pre-encoded frames through SendEncoded as fast as TCP takes them.
// A segment's throughput is its median rate over fixed-size rounds of
// acked events, so a short host stall decides one round, not the
// segment; its latency is the median over measured seconds of the
// frame ack p50 at that saturating load. The run reports the
// segmentMean of each.
func runFlood(b *bench, dur time.Duration, reps int) (*measured, error) {
	m := newMeasured()
	var rates, ackWin, segRates, segAck []float64
	alarms := 0
	err := serveSegments(b, m, dur, reps, false, false, func(env *serveEnv, d time.Duration) error {
		r, win, n, err := floodSegment(b, env, d, m)
		ackWin = append(ackWin, win...)
		segAck = append(segAck, median(win))
		if len(r) > 0 {
			rates = append(rates, r...)
			segRates = append(segRates, median(r))
		}
		alarms += n
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("serve-flood: no complete %d-event round in %v", floodRound, dur)
	}
	m.e2e["throughput_per_s"] = segmentMean(segRates)
	m.e2e["latency_p50_us"] = segmentMean(segAck)
	fmt.Printf("# serve-flood: %d rounds of %d events; wall-clock rate p25/p50/p75 = %.0f/%.0f/%.0f events/s; %d alarms (want 0)\n",
		len(rates), floodRound, quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75), alarms)
	fmt.Printf("# serve-flood: wall-clock median rate per segment %.0f events/s\n", segRates)
	fmt.Printf("# serve-flood: frame ack p50 per segment %.0f us\n", segAck)
	fmt.Printf("# serve-flood: per-second frame ack p50 p25/p50/p75 = %.1f/%.1f/%.1f us\n",
		quantile(ackWin, 0.25), quantile(ackWin, 0.5), quantile(ackWin, 0.75))
	return m, nil
}

// floodSegment floods one daemon for d and returns its round rates, its
// per-second ack p50s and the alarms it raised.
func floodSegment(b *bench, env *serveEnv, d time.Duration, m *measured) ([]float64, []float64, int, error) {
	meas := b.spans.start("measure", 0, 0)
	before := env.coreTotals()
	nAck0 := make([]int, len(env.sess))
	for i, s := range env.sess {
		ack, _ := s.c.Latencies()
		nAck0[i] = len(ack)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(env.sess))
	base := uint64(0)
	for _, s := range env.sess {
		base += s.sent.Load()
	}
	start := time.Now()
	for i, s := range env.sess {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			for j := 0; !stop.Load(); j = (j + 1) % len(env.block) {
				t := time.Now()
				if err := s.send(&env.block[j], true); err != nil {
					errs[i] = err
					return
				}
				if b.spans != nil {
					now := time.Now()
					s.sendNs += now.Sub(t).Nanoseconds()
					b.spans.record("ipdsclient.SendEncoded", meas.id, i+1, t, now)
				}
			}
		}(i, s)
	}
	samples := []ackSample{{start, base}}
	for end := start.Add(d); time.Now().Before(end); {
		time.Sleep(pollEvery)
		var acked uint64
		for _, s := range env.sess {
			acked += s.c.Acked()
		}
		samples = append(samples, ackSample{time.Now(), acked})
	}
	stop.Store(true)
	wg.Wait()
	meas.end()
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("serve-flood send: %w", err)
		}
	}
	after := env.coreTotals()
	if err := env.waitAcked(10 * time.Second); err != nil {
		fmt.Printf("# serve-flood: %v (the check counts every unacked frame as failed)\n", err)
	}
	bad, alarms := env.check(false)
	m.attempted += env.framesSent()
	m.failed += bad
	windows := max(int(d/time.Second), 1)
	var ackWin []float64
	for i, s := range env.sess {
		ack, _ := s.c.Latencies()
		ackWin = append(ackWin, chunkQuantiles(micros(ack[nAck0[i]:]), windows, 0.5)...)
	}

	events := after.events - before.events
	var timedEvents uint64
	var sendNs int64
	for _, s := range env.sess {
		timedEvents += s.sent.Load()
		sendNs += s.sendNs
	}
	timedEvents -= base
	m.layer["server.verify_ns_per_event"] = float64(after.verifyNs-before.verifyNs) / float64(max(events, 1))
	m.layer["ipdsclient.send_ns_per_event"] = float64(sendNs) / float64(max(timedEvents, 1))
	m.layer["server.stalls"] = float64(after.stalls - before.stalls)
	m.layer["server.ring_high_water"] = float64(after.ringHW)
	m.layer["server.sessions_per_core"] = float64(after.sessionsMax)
	return roundRates(samples, floodRound), ackWin, alarms, nil
}

// roundRates splits the acked-event curve into rounds of size events
// and returns each complete round's rate, crossing times interpolated
// between polls.
func roundRates(samples []ackSample, size uint64) []float64 {
	var rates []float64
	prev := samples[0].t
	target := samples[0].acked + size
	for i := 1; i < len(samples); i++ {
		a, c := samples[i-1], samples[i]
		for c.acked >= target {
			frac := float64(target-a.acked) / float64(c.acked-a.acked)
			at := a.t.Add(time.Duration(frac * float64(c.t.Sub(a.t))))
			rates = append(rates, float64(size)/at.Sub(prev).Seconds())
			prev = at
			target += size
		}
	}
	return rates
}

// pacedStats pools serve-paced samples over segments.
type pacedStats struct {
	ackWin, ack90Win, alarmWin []float64 // per-second quantiles
	ackAll, alarmAll, lateUs   []float64
	cpuCores, backlog          []float64
	rates, segAck              []float64 // acked events per second and median ack p50, per segment
	ticks                      int       // generator ticks, each one frame per session
	grew                       int       // segments whose backlog grew
}

// runPaced is serve-paced: an open loop in which each session sends one
// frame of the tampered trace every pacePeriod on a fixed schedule,
// whatever the acks do. Latency runs from each send call; how late the
// generator ran against its schedule is reported beside it. Each metric
// is taken per measured second and the median over seconds reported,
// so a host stall decides one window, not the run.
func runPaced(b *bench, dur time.Duration, reps int) (*measured, error) {
	m := newMeasured()
	var st pacedStats
	err := serveSegments(b, m, dur, reps, true, b.spans != nil, func(env *serveEnv, d time.Duration) error {
		return pacedSegment(b, env, d, m, &st)
	})
	if err != nil {
		return nil, err
	}
	m.e2e["throughput_per_s"] = segmentMean(st.rates)
	m.fixedRate = true
	m.e2e["latency_p50_us"] = segmentMean(st.segAck)
	// Alarm latency, ack p90 and cpu_cores are printed, not gated
	// (README.md, "End-to-end metrics" and "Known blind spots").
	fmt.Printf("# serve-paced: alarm_p50_us %.1f, ack_p90_us %.1f, cpu_cores %.3f (median per second; not gated)\n",
		median(st.alarmWin), median(st.ack90Win), median(append([]float64(nil), st.cpuCores...)))
	fmt.Printf("# serve-paced: pooled ack p50/p90/p99 = %.1f/%.1f/%.1f us (n=%d); alarm p50/p90/p99 = %.1f/%.1f/%.1f us (n=%d)\n",
		quantile(st.ackAll, 0.5), quantile(st.ackAll, 0.9), quantile(st.ackAll, 0.99), len(st.ackAll),
		quantile(st.alarmAll, 0.5), quantile(st.alarmAll, 0.9), quantile(st.alarmAll, 0.99), len(st.alarmAll))
	fmt.Printf("# serve-paced: per-second ack p50 p25/p50/p75 = %.1f/%.1f/%.1f us; cpu_cores p25/p50/p75 = %.3f/%.3f/%.3f\n",
		quantile(st.ackWin, 0.25), quantile(st.ackWin, 0.5), quantile(st.ackWin, 0.75),
		quantile(st.cpuCores, 0.25), quantile(st.cpuCores, 0.5), quantile(st.cpuCores, 0.75))
	fmt.Printf("# serve-paced: ack p50 per segment %.1f us\n", st.segAck)
	offered := float64(serveSessions) / pacePeriod.Seconds()
	achieved := float64(st.ticks*serveSessions) / dur.Seconds()
	fmt.Printf("# serve-paced: offered %.0f frames/s, achieved %.1f; generator lateness p50/p99/max = %.1f/%.1f/%.1f us; backlog mean %.2f frames, grew in %d of %d segments\n",
		offered, achieved, quantile(st.lateUs, 0.5), quantile(st.lateUs, 0.99), quantile(st.lateUs, 1),
		mean(st.backlog), st.grew, reps)
	return m, nil
}

// pacedSegment drives one daemon at the fixed rate for d.
func pacedSegment(b *bench, env *serveEnv, d time.Duration, m *measured, st *pacedStats) error {
	traced := b.spans != nil
	meas := b.spans.start("measure", 0, 0)
	before := env.coreTotals()
	nAck0, nAlarm0 := make([]int, len(env.sess)), make([]int, len(env.sess))
	var ctx0, alarms0 uint64
	for i, s := range env.sess {
		ack, al := s.c.Latencies()
		nAck0[i], nAlarm0[i] = len(ack), len(al)
		ctx0 += s.c.CtxCount()
		alarms0 += uint64(len(s.c.Alarms()))
	}
	// One generator drives both sessions from one schedule, ticking on a
	// timerfd (see ticker): every tick sends one frame on each session,
	// back to back. A late tick is caught up, never skipped.
	tk, err := newTicker(pacePeriod)
	if err != nil {
		return err
	}
	defer tk.close()
	var late []time.Duration
	var genErr error
	done := make(chan struct{})
	start := tk.start
	end := start.Add(d)
	go func() {
		defer close(done)
		for k := 0; ; {
			n, err := tk.wait()
			if err != nil {
				genErr = err
				return
			}
			for ; n > 0; n-- {
				due := start.Add(time.Duration(k) * pacePeriod)
				if !due.Before(end) {
					return
				}
				late = append(late, time.Since(due))
				for i, s := range env.sess {
					t := time.Now()
					// Traced runs re-encode through Send so the client can
					// stamp trace ids; untraced runs ship pre-encoded frames.
					if err := s.send(&env.block[k%len(env.block)], !traced); err != nil {
						genErr = err
						return
					}
					if traced {
						b.spans.record("ipdsclient.Send", meas.id, i+1, t, time.Now())
					}
				}
				k++
			}
		}
	}()
	// Sample the process CPU once a second and watch the backlog (sent
	// but unacked frames); on traced runs, collect the daemon's span
	// records before its bounded rings wrap.
	var backlog []float64
	spans := map[uint64]server.SpanRec{}
	cpuT, cpuS := start, cpuSeconds()
	acked0 := env.acked()
	for time.Now().Before(end) {
		time.Sleep(50 * time.Millisecond)
		var out uint64
		for _, s := range env.sess {
			acked := s.c.Acked() // before sent: an ack never covers events not yet counted
			out += s.sent.Load() - acked
		}
		backlog = append(backlog, float64(out)/frameEvents)
		if now := time.Now(); now.Sub(cpuT) >= time.Second {
			c := cpuSeconds()
			st.cpuCores = append(st.cpuCores, (c-cpuS)/now.Sub(cpuT).Seconds())
			cpuT, cpuS = now, c
		}
		if traced {
			for _, r := range env.srv.TraceSpans() {
				spans[r.TraceID] = r
			}
		}
	}
	st.rates = append(st.rates, float64(env.acked()-acked0)/time.Since(start).Seconds())
	<-done
	meas.end()
	if genErr != nil {
		return fmt.Errorf("serve-paced send: %w", genErr)
	}
	after := env.coreTotals()
	if err := env.waitAcked(10 * time.Second); err != nil {
		fmt.Printf("# serve-paced: %v (the check counts every unacked frame as failed)\n", err)
	}

	// Samples arrive in send order, one ack per frame and about the
	// same number of alarms per second, so equal-count chunks of each
	// session's samples are its measured seconds.
	windows := max(int(d/time.Second), 1)
	var ctx1, alarms1 uint64
	var segWin []float64
	for i, s := range env.sess {
		ack, al := s.c.Latencies()
		ackUs, alarmUs := micros(ack[nAck0[i]:]), micros(al[nAlarm0[i]:])
		segWin = append(segWin, chunkQuantiles(ackUs, windows, 0.5)...)
		st.ack90Win = append(st.ack90Win, chunkQuantiles(ackUs, windows, 0.9)...)
		st.alarmWin = append(st.alarmWin, chunkQuantiles(alarmUs, windows, 0.5)...)
		st.ackAll = append(st.ackAll, ackUs...)
		st.alarmAll = append(st.alarmAll, alarmUs...)
		ctx1 += s.c.CtxCount()
		alarms1 += uint64(len(s.c.Alarms()))
	}
	st.ackWin = append(st.ackWin, segWin...)
	st.segAck = append(st.segAck, median(segWin))
	st.lateUs = append(st.lateUs, micros(late)...)
	st.ticks += len(late)
	st.backlog = append(st.backlog, backlog...)
	if q := len(backlog) / 4; q > 0 && mean(backlog[len(backlog)-q:]) > 2*mean(backlog[:q])+2 {
		st.grew++
	}
	bad, _ := env.check(true)
	m.attempted += env.framesSent()
	m.failed += bad

	batches := float64(max(after.batches-before.batches, 1))
	m.layer["server.parks_per_batch"] = float64(after.parks-before.parks) / batches
	m.layer["server.wakes_per_batch"] = float64(after.wakes-before.wakes) / batches
	m.layer["server.ctx_per_alarm"] = float64(ctx1-ctx0) / float64(max(alarms1-alarms0, 1))
	if traced {
		for _, r := range env.srv.TraceSpans() {
			spans[r.TraceID] = r
		}
		recs := make([]server.SpanRec, 0, len(spans))
		for _, r := range spans {
			recs = append(recs, r)
		}
		b.spans.addDaemon(recs)
		stage := make([][]float64, 4)
		for _, r := range recs {
			for k, ds := range daemonStages(r) {
				stage[k] = append(stage[k], float64(ds.to-ds.from)/1e3)
			}
		}
		for k, ds := range daemonStages(server.SpanRec{}) {
			m.layer[ds.name+"_us"] = quantile(stage[k], 0.5)
		}
		fmt.Printf("# serve-paced: %d daemon span records; writer parks/batch %.3f\n",
			len(recs), float64(after.writerParks-before.writerParks)/batches)
	}
	return nil
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// chunkQuantiles splits xs (in arrival order) into n equal chunks and
// returns each chunk's q-quantile.
func chunkQuantiles(xs []float64, n int, q float64) []float64 {
	var out []float64
	size := len(xs) / n
	for k := 0; size > 0 && k < n; k++ {
		out = append(out, quantile(append([]float64(nil), xs[k*size:(k+1)*size]...), q))
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
