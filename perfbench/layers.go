package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/incident"
	"repro/internal/ipds"
	"repro/internal/ipdsclient"
	"repro/internal/vm"
	"repro/internal/wire"
)

// layerMetric is one per-layer metric: the end-to-end metric it should
// move, and the span whose self time the per-layer table shows beside
// it ("" when the metric is a counter with no span of its own).
type layerMetric struct {
	name, unit, moves, span string
}

func layerMetrics(programs []string) []layerMetric {
	const (
		flood    = "serve-flood throughput_per_s"
		paced    = "serve-paced latency_p50_us (ack), alarm/ack p90 printed"
		pacedCPU = "serve-paced cpu_cores (printed, not gated)"
		campaign = "attack-campaign throughput_per_s"
	)
	ls := []layerMetric{
		{"ipds.onbatch_ns_per_event", "ns", flood, "ipds.Machine.OnBatch"},
		{"server.verify_ns_per_event", "ns", flood, ""},
		{"wire.decode_ns_per_event", "ns", flood, "wire.DecodeBatchInto"},
		{"ipdsclient.send_ns_per_event", "ns", flood, "ipdsclient.SendEncoded"},
		{"server.stalls", "count", flood, ""},
		{"server.ring_high_water", "tasks", flood, ""},
		{"server.sessions_per_core", "sessions", flood, ""},
		{"server.read_to_dequeue_us", "us", paced, "server.read_to_dequeue"},
		{"server.verify_us", "us", paced, "server.verify"},
		{"server.offer_us", "us", paced, "server.offer"},
		{"server.write_us", "us", paced, "server.write"},
		{"server.parks_per_batch", "1/batch", pacedCPU, ""},
		{"server.wakes_per_batch", "1/batch", pacedCPU, ""},
		{"server.ctx_per_alarm", "1/alarm", pacedCPU, ""},
		{"incident.observe_ns_per_alarm", "ns", pacedCPU, "incident.Analyzer.Observe"},
		{"vm.ns_per_step", "ns", campaign, "vm.VM.Run"},
		{"ipds.onbranch_ns_per_event", "ns", campaign, "ipdsclient.ReplayLocal"},
		{"ipds.bat_accesses_per_branch", "1/branch", campaign, "ipds.Attach"},
	}
	for _, p := range programs {
		ls = append(ls, layerMetric{"attack.trial_us." + p, "us", campaign, "attack.Campaign.Run"})
	}
	return append(ls, layerMetric{"pipeline.compile_ms", "ms", "setup_s (every workload)", "pipeline.CompileWith"})
}

// tracedRun is the --trace 1 run. It runs the named workload once with
// tracing off and once with it on (the difference is the tracing
// overhead), the other two workloads traced, and the standalone layer
// probes; then it writes the Chrome trace and prints the per-layer
// table with self times. Each part gets a fifth of the run time.
func tracedRun(b *bench, name string, dur time.Duration, outDir string) (result, error) {
	seg := dur / 5
	spans := b.spans
	b.spans = nil
	plain, err := workloads[name](b, seg, 1)
	b.spans = spans
	if err != nil {
		return result{}, err
	}
	// The named workload's traced segment runs right after its untraced
	// one, before the span log has grown: a bigger live heap spaces out
	// GC cycles, which speeds up the allocation-heavy campaign.
	order := []string{name}
	for _, wl := range []string{"serve-flood", "serve-paced", "attack-campaign"} {
		if wl != name {
			order = append(order, wl)
		}
	}
	total := newMeasured()
	total.attempted, total.failed = plain.attempted, plain.failed
	for _, wl := range order {
		m, err := workloads[wl](b, seg, 1)
		if err != nil {
			return result{}, err
		}
		for k, v := range m.layer {
			total.layer[k] = v
		}
		total.attempted += m.attempted
		total.failed += m.failed
		if wl == name {
			for k, v := range plain.e2e {
				fmt.Printf("# tracing overhead on %s: traced %.4g - untraced %.4g = %+.4g %s\n",
					k, m.e2e[k], v, m.e2e[k]-v, e2eUnits[k])
			}
		}
	}
	imgs, err := probeLayers(b, seg, total.layer)
	if err != nil {
		return result{}, err
	}
	total.layer["pipeline.compile_ms"] = float64(medianDur(b.compiles)) / 1e6

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if err := b.spans.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Printf("# chrome trace: %s\n", path)
	lts := b.spans.selfTimes()
	b.spans.printSelfTimes(lts)

	vals, units := map[string]float64{}, map[string]string{}
	fmt.Printf("# %-36s %14s %-9s %12s  %s\n", "per-layer metric", "value", "unit", "span_self_ms", "should move")
	for _, lm := range layerMetrics(imgs.order) {
		v, ok := total.layer[lm.name]
		if !ok {
			return result{}, fmt.Errorf("traced run produced no %s", lm.name)
		}
		vals[lm.name], units[lm.name] = v, lm.unit
		self := "-"
		if lt := lts[lm.span]; lt != nil {
			self = fmt.Sprintf("%.3f", float64(lt.self)/1e6)
		}
		fmt.Printf("# %-36s %14.4f %-9s %12s  %s\n", lm.name, v, lm.unit, self, lm.moves)
	}
	fmt.Printf("# served kernel gap: server.verify_ns_per_event %.1f vs ipds.onbatch_ns_per_event %.1f (%.2fx)\n",
		total.layer["server.verify_ns_per_event"], total.layer["ipds.onbatch_ns_per_event"],
		total.layer["server.verify_ns_per_event"]/total.layer["ipds.onbatch_ns_per_event"])
	return finish(total, vals, units), nil
}

// probeLayers times single layers standalone, each for a fifth of d:
// the batched kernel, the wire decoder and the per-event kernel on the
// serve-flood stream, the incident analyzer on the serve-paced alarm
// stream, and the VM on every benign session. The BAT walk count is
// exact.
func probeLayers(b *bench, d time.Duration, out map[string]float64) (*images, error) {
	root := b.spans.start("probes", 0, 0)
	defer root.end()
	imgs, err := compileAll(b, root.id)
	if err != nil {
		return nil, err
	}
	img := imgs.arts[servedProgram].Image
	benign := balancedPass(imgs, false)
	period := len(benign) / gcd(len(benign), frameEvents) * frameEvents
	block := frames(benign, 0, period)
	var stream []wire.Event
	for _, f := range block {
		stream = append(stream, f.events...)
	}
	slice := d / 5
	loop := func(name string, f func()) int {
		n := 0
		for start := time.Now(); time.Since(start) < slice; n++ {
			sp := b.spans.start(name, root.id, 0)
			f()
			sp.end()
		}
		return n
	}
	perEvent := func(el time.Duration, passes, events int) float64 {
		return float64(el.Nanoseconds()) / float64(passes*events)
	}

	cfg := ipds.DefaultConfig
	cfg.Recorder = ipds.DefaultRecorderDepth // as the daemon configures its machines
	mb := ipds.New(img, cfg)
	t0 := time.Now()
	n := loop("ipds.Machine.OnBatch", func() {
		for i := range block {
			mb.OnBatch(block[i].events)
		}
	})
	out["ipds.onbatch_ns_per_event"] = perEvent(time.Since(t0), n, len(stream))

	var batch wire.Batch
	var decodeErr error
	t0 = time.Now()
	n = loop("wire.DecodeBatchInto", func() {
		for i := range block {
			if err := wire.DecodeBatchInto(block[i].enc[4:], &batch); err != nil {
				decodeErr = err
			}
		}
	})
	out["wire.decode_ns_per_event"] = perEvent(time.Since(t0), n, len(stream))
	if decodeErr != nil {
		return nil, fmt.Errorf("decode probe: %w", decodeErr)
	}

	mr := ipds.New(img, ipds.DefaultConfig)
	t0 = time.Now()
	n = loop("ipdsclient.ReplayLocal", func() { ipdsclient.ReplayLocal(mr, stream) })
	out["ipds.onbranch_ns_per_event"] = perEvent(time.Since(t0), n, len(stream))

	// The analyzer sees the serve-paced alarm stream, pass after pass,
	// with sequence numbers that keep advancing as a live session's do.
	tampered := balancedPass(imgs, true)
	var tamperedStream []wire.Event
	for i := 0; i < period/len(tampered); i++ {
		tamperedStream = append(tamperedStream, tampered...)
	}
	alarms := ipdsclient.ReplayLocal(ipds.New(img, ipds.DefaultConfig), tamperedStream)
	var branches uint64
	for _, ev := range tamperedStream {
		if ev.Kind == wire.EvBranch {
			branches++
		}
	}
	an := incident.NewAnalyzer(incident.Config{})
	var off uint64
	t0 = time.Now()
	n = loop("incident.Analyzer.Observe", func() {
		for _, a := range alarms {
			an.Observe(incident.AlarmEvent{Session: 1, Seq: a.Seq + off, PC: a.PC, Func: a.Func, Taken: a.Taken})
		}
		off += branches
	})
	out["incident.observe_ns_per_alarm"] = perEvent(time.Since(t0), n, max(len(alarms), 1))

	var steps uint64
	t0 = time.Now()
	loop("vm.VM.Run", func() {
		for _, name := range imgs.order {
			for _, input := range imgs.sessions[name] {
				steps += vm.New(imgs.arts[name].Prog, vm.DefaultConfig, input).Run().Steps
			}
		}
	})
	out["vm.ns_per_step"] = float64(time.Since(t0).Nanoseconds()) / float64(max(steps, 1))

	fp, bat, br, sessions := benignStats(b, imgs, root.id)
	if fp != 0 {
		return nil, fmt.Errorf("%d false positives over %d benign sessions", fp, sessions)
	}
	out["ipds.bat_accesses_per_branch"] = float64(bat) / float64(max(br, 1))
	return imgs, nil
}
