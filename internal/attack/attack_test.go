package attack

import (
	"runtime"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func campaign(t *testing.T, w *workload.Workload, model Model, n int, seed int64) *Result {
	t.Helper()
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	c := &Campaign{
		Name:      w.Name,
		Artifacts: art,
		Input:     w.AttackSession,
		Model:     model,
		Attacks:   n,
		Seed:      seed,
	}
	return c.Run()
}

func TestCampaignBasics(t *testing.T) {
	res := campaign(t, workload.Telnetd(), ArbitraryWrite, 40, 1)
	if len(res.Trials) != 40 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if res.Program != "telnetd" {
		t.Errorf("program = %q", res.Program)
	}
	// Counter consistency.
	cf, det := 0, 0
	for _, tr := range res.Trials {
		switch tr.Outcome {
		case Detected:
			cf++
			det++
		case Missed:
			cf++
		}
	}
	if cf != res.CFChanged || det != res.Detected {
		t.Errorf("counters inconsistent: %d/%d vs %d/%d", cf, det, res.CFChanged, res.Detected)
	}
	if res.Detected > res.CFChanged {
		t.Error("cannot detect more than changed control flow")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	a := campaign(t, workload.HTTPD(), Overflow, 25, 42)
	b := campaign(t, workload.HTTPD(), Overflow, 25, 42)
	if a.CFChanged != b.CFChanged || a.Detected != b.Detected {
		t.Errorf("non-deterministic: %d/%d vs %d/%d",
			a.CFChanged, a.Detected, b.CFChanged, b.Detected)
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs", i)
		}
	}
	c := campaign(t, workload.HTTPD(), Overflow, 25, 43)
	same := true
	for i := range a.Trials {
		if a.Trials[i] != c.Trials[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different campaigns")
	}
}

func TestCampaignDetectsSomething(t *testing.T) {
	// Across the servers, a meaningful fraction of tamperings must
	// change control flow, and a meaningful fraction of those must be
	// detected (Figure 7's shape).
	total, cf, det := 0, 0, 0
	for _, w := range []*workload.Workload{workload.Telnetd(), workload.WuFTPD(), workload.SSHD()} {
		res := campaign(t, w, ArbitraryWrite, 60, 7)
		total += len(res.Trials)
		cf += res.CFChanged
		det += res.Detected
	}
	if cf == 0 {
		t.Fatal("no tampering changed control flow")
	}
	if det == 0 {
		t.Fatal("nothing detected")
	}
	cfRate := float64(cf) / float64(total)
	condRate := float64(det) / float64(cf)
	if cfRate < 0.1 || cfRate > 0.95 {
		t.Errorf("CF-change rate %.2f implausible", cfRate)
	}
	if condRate < 0.15 {
		t.Errorf("conditional detection rate %.2f too low", condRate)
	}
	t.Logf("cfRate=%.2f condDetect=%.2f", cfRate, condRate)
}

func TestOverflowModelOnlyHitsStack(t *testing.T) {
	w := workload.Crond()
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	res := campaign(t, w, Overflow, 50, 3)
	for _, tr := range res.Trials {
		if tr.Victim == ir.ObjNone || tr.Step == 0 {
			continue
		}
		obj := art.Prog.Object(tr.Victim)
		if obj.Kind == ir.ObjGlobal || obj.Kind == ir.ObjString {
			t.Errorf("overflow model tampered non-stack object %s", obj.Name)
		}
	}
}

func TestRatesArithmetic(t *testing.T) {
	r := &Result{
		Trials:    make([]Trial, 10),
		CFChanged: 4,
		Detected:  2,
	}
	if r.CFChangeRate() != 0.4 {
		t.Errorf("CFChangeRate = %v", r.CFChangeRate())
	}
	if r.DetectionRate() != 0.2 {
		t.Errorf("DetectionRate = %v", r.DetectionRate())
	}
	if r.ConditionalDetectionRate() != 0.5 {
		t.Errorf("ConditionalDetectionRate = %v", r.ConditionalDetectionRate())
	}
	empty := &Result{}
	if empty.CFChangeRate() != 0 || empty.DetectionRate() != 0 || empty.ConditionalDetectionRate() != 0 {
		t.Error("empty result rates must be 0")
	}
}

func TestModelAndOutcomeStrings(t *testing.T) {
	if Overflow.String() != "buffer overflow" || ArbitraryWrite.String() != "format string" {
		t.Error("model strings")
	}
	if NoEffect.String() != "no-cf-change" || Detected.String() != "detected" ||
		Missed.String() != "missed" || Outcome(9).String() != "?" {
		t.Error("outcome strings")
	}
}

// TestCampaignReusesArena bounds a campaign's allocation: trials rerun
// one VM whose memory comes from the arena pool, so a 30-trial campaign
// allocates far less than one 1 MiB VM memory per trial.
func TestCampaignReusesArena(t *testing.T) {
	w := workload.Telnetd()
	art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) {
		c := &Campaign{Name: w.Name, Artifacts: art, Input: w.AttackSession, Model: ArbitraryWrite, Attacks: 30, Seed: seed}
		if got := len(c.Run().Trials); got != 30 {
			t.Fatalf("trials = %d", got)
		}
	}
	run(1) // warm-up: puts an arena in the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(2)
	runtime.ReadMemStats(&after)
	const bound = 30 * 256 << 10
	if d := after.TotalAlloc - before.TotalAlloc; d >= bound {
		t.Fatalf("30-trial campaign allocated %d bytes, want < %d", d, bound)
	} else {
		t.Logf("30-trial campaign allocated %d bytes", d)
	}
}
