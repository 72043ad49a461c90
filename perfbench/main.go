// Command perfbench is the repository benchmark: one process that
// starts the IPDS daemon engine in-process on loopback, drives it
// through the public ipdsclient/wire APIs, and runs one of three
// workloads (serve-flood, serve-paced, attack-campaign). It checks every
// output against an in-process oracle and prints, as its last line, one
// JSON object with the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) of the run. See README.md for the design.
//
// Usage:
//
//	perfbench --workload serve-flood --seed 1 --seconds 10 --trace 0 [--out .bench_build]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many segments an untraced run has. Each sets up from
// scratch, so setup_s is a median of twelve, which keeps one cold first
// pass (page faults, GC sizing) or one slow warm-up from deciding the
// number.
const setupReps = 12

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's context.
type bench struct {
	seed     int64
	spans    *spanLog        // nil on untraced runs: every span call is a no-op
	compiles []time.Duration // each ten-image compile the run made
	probes   []float64       // hostProbe times, ms
}

// measured is what one workload run yields.
type measured struct {
	setup     []time.Duration // one per set-up repetition, wall clock
	attempted int64
	failed    int64
	e2e       map[string]float64 // end-to-end metrics besides setup_s/peak_rss_mb
	// fixedRate marks a throughput set by the offered load rather than by
	// the host's speed, so it is not scaled to the reference host.
	fixedRate bool
	layer     map[string]float64 // per-layer metrics a traced run yields
}

func newMeasured() *measured {
	return &measured{e2e: map[string]float64{}, layer: map[string]float64{}}
}

type workloadFunc func(b *bench, dur time.Duration, reps int) (*measured, error)

var workloads = map[string]workloadFunc{
	"serve-flood":     runFlood,
	"serve-paced":     runPaced,
	"attack-campaign": runCampaign,
}

// e2eUnits names the end-to-end metrics. Every workload reports every
// one of them; throughput_per_s and latency_p50_us count the workload's
// own op (README.md, "End-to-end metrics").
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"peak_rss_mb":      "MB",
	"throughput_per_s": "1/s",
	"latency_p50_us":   "us",
}

func main() {
	name := flag.String("workload", "", "serve-flood, serve-paced or attack-campaign")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the Chrome trace of a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	b := &bench{seed: *seed}
	dur := time.Duration(*seconds) * time.Second
	steal := readCPUTimes()
	var res result
	var err error
	if *trace == 1 {
		b.spans = newSpanLog()
		res, err = tracedRun(b, *name, dur, *out)
	} else {
		res, err = plainRun(b, run, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printFingerprint(*name, *seed, steal.stealShare(readCPUTimes()))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// plainRun measures the end-to-end metrics with tracing off.
func plainRun(b *bench, run workloadFunc, dur time.Duration) (result, error) {
	rss := startRSS()
	m, err := run(b, dur, setupReps)
	samples := rss.finish()
	if err != nil {
		return result{}, err
	}
	m.e2e["setup_s"] = medianDur(m.setup).Seconds()
	fmt.Printf("# wall clock, before host-speed scaling: setup_s %.6f, throughput_per_s %.6g, latency_p50_us %.6g\n",
		m.e2e["setup_s"], m.e2e["throughput_per_s"], m.e2e["latency_p50_us"])
	// Times and rates are scaled to the reference host's speed
	// (hostspeed.go); the resident set is not a speed.
	scale := b.hostScale()
	m.e2e["setup_s"] /= scale
	m.e2e["latency_p50_us"] /= scale
	if !m.fixedRate {
		m.e2e["throughput_per_s"] *= scale
	}
	fmt.Printf("# host probe: median %.3f ms over %d probes (p25 %.3f, p75 %.3f); reference %.1f ms; scale %.4f\n",
		median(b.probes), len(b.probes), quantile(b.probes, 0.25), quantile(b.probes, 0.75), probeRefMs, scale)
	// peak_rss_mb is the 95th percentile of the sampled resident set: the
	// level the run holds for its top twentieth. The campaign's 1 MiB
	// per-trial VM memory makes the true maximum a single GC overshoot
	// that lands anywhere between 20 and 60 MB from run to run.
	m.e2e["peak_rss_mb"] = quantile(samples, 0.95)
	fmt.Printf("# setup_s per repetition, wall clock: %s\n", fmtDurs(m.setup))
	fmt.Printf("# resident set: p50 %.1f, p95 %.1f, max %.1f MB (%d samples)\n",
		quantile(samples, 0.5), quantile(samples, 0.95), quantile(samples, 1), len(samples))
	for k := range e2eUnits {
		if v, ok := m.e2e[k]; !ok || !(v > 0) {
			return result{}, fmt.Errorf("run measured no %s (%v)", k, v)
		}
	}
	return finish(m, m.e2e, e2eUnits), nil
}

func finish(m *measured, vals map[string]float64, units map[string]string) result {
	res := result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for k, v := range vals {
		res.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	return res
}

// printFingerprint stamps the run with the host it ran on.
func printFingerprint(workload string, seed int64, steal float64) {
	fp := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"steal":      steal,
	}
	line, _ := json.Marshal(fp)
	fmt.Printf("# host %s\n", line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	ln, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(ln)
	var t cpuTimes
	for i := 1; i < len(f) && i <= 8; i++ { // user..steal; guest time is already inside user
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of all CPU time the hypervisor stole between
// t and later.
func (t cpuTimes) stealShare(later cpuTimes) float64 {
	if later.total <= t.total {
		return 0
	}
	return float64(later.steal-t.steal) / float64(later.total-t.total)
}

// rssSampler samples the process's resident set every 20 ms for the
// whole run, set-up included.
type rssSampler struct {
	mu      sync.Mutex
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			mb := rssMB()
			r.mu.Lock()
			r.samples = append(r.samples, mb)
			r.mu.Unlock()
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// finish stops the sampler and returns its samples.
func (r *rssSampler) finish() []float64 {
	close(r.stop)
	<-r.done
	return r.samples
}

// rssMB reads the process's current resident set.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// segmentMean is the interquartile mean of per-segment values: the mean
// of the middle half. Segments fall into a few scheduling modes that
// differ by up to a third (README.md, "How a run is structured"); a
// median over segments jumps between modes, while the middle half's
// mean moves with their mix and still ignores an outlying segment.
func segmentMean(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	k := len(xs) / 4
	return mean(xs[k : len(xs)-k])
}

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place; 0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func fmtDurs(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.Round(100 * time.Microsecond).String()
	}
	return strings.Join(parts, " ")
}
