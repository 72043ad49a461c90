package main

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/ipds"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/vm"
	"repro/internal/workload"
)

// campaignAttacks is each program's attack count per campaign round,
// spread across its benign sessions the way Figure 7 spreads its
// budget.
const campaignAttacks = 30

// warmSeed drives the set-up's warm-up round: fixed, so every seed does
// the same set-up work.
const warmSeed = 0x5eed

// images is the ten servers compiled from MiniC, in the paper's order.
type images struct {
	order    []string
	arts     map[string]*pipeline.Artifacts
	sessions map[string][][]string
	model    map[string]attack.Model
}

// compileAll compiles every workload image with no cache, as
// `ipdsd -all` does, and records the compile time.
func compileAll(b *bench, parent uint64) (*images, error) {
	imgs := &images{
		arts:     map[string]*pipeline.Artifacts{},
		sessions: map[string][][]string{},
		model:    map[string]attack.Model{},
	}
	t0 := time.Now()
	for _, w := range workload.All() {
		sp := b.spans.start("pipeline.CompileWith", parent, 0)
		art, err := pipeline.CompileWith(w.Source, ir.DefaultOptions, pipeline.Config{}, nil)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", w.Name, err)
		}
		imgs.order = append(imgs.order, w.Name)
		imgs.arts[w.Name] = art
		imgs.sessions[w.Name] = w.Sessions()
		// Figure 7's models: buffer-overflow programs get stack-only
		// tampering, format-string programs arbitrary writes.
		imgs.model[w.Name] = attack.Overflow
		if w.Vuln == "format string" {
			imgs.model[w.Name] = attack.ArbitraryWrite
		}
	}
	b.compiles = append(b.compiles, time.Since(t0))
	return imgs, nil
}

// benignStats runs every benign session of every program with a
// detector attached through ipds.Attach (the per-event OnBranch path)
// and sums the machines' counters. Alarms must be 0: the paper's
// zero-false-positive guarantee.
func benignStats(b *bench, imgs *images, parent uint64) (alarms, batAccesses, branches uint64, sessions int) {
	for _, name := range imgs.order {
		art := imgs.arts[name]
		for _, input := range imgs.sessions[name] {
			sp := b.spans.start("ipds.Attach", parent, 0)
			v := vm.New(art.Prog, vm.DefaultConfig, input)
			m := ipds.New(art.Image, ipds.DefaultConfig)
			ipds.Attach(v, m)
			v.Run()
			sp.end()
			st := m.Stats()
			alarms += st.Alarms
			batAccesses += st.BATAccesses
			branches += st.Branches
			sessions++
		}
	}
	return alarms, batAccesses, branches, sessions
}

// roundResult is one campaign round: every program attacked
// campaignAttacks times.
type roundResult struct {
	trials, cfChanged, detected int
	failed                      int // trials of campaigns whose golden run raised an alarm
	perProgram                  map[string]time.Duration
	trialUs                     []float64 // each program's wall time per trial
	elapsed                     time.Duration
}

// campaignRound runs the Figure 7 campaign once: for every program and
// every benign session, an attack.Campaign with that program's model.
// A false positive on a campaign's untampered golden run (which
// attack.Campaign reports by panicking) fails that campaign's trials.
func campaignRound(b *bench, imgs *images, seed int64, parent uint64) roundResult {
	r := roundResult{perProgram: map[string]time.Duration{}}
	round := b.spans.start("campaign.round", parent, 0)
	t0 := time.Now()
	for i, name := range imgs.order {
		sessions := imgs.sessions[name]
		per, extra := campaignAttacks/len(sessions), campaignAttacks%len(sessions)
		tp := time.Now()
		for si, input := range sessions {
			n := per
			if si < extra {
				n++
			}
			if n == 0 {
				continue
			}
			c := &attack.Campaign{
				Name:      name,
				Artifacts: imgs.arts[name],
				Input:     input,
				Model:     imgs.model[name],
				Attacks:   n,
				Seed:      seed + int64(i)*7919 + int64(si)*104729,
			}
			sp := b.spans.start("attack.Campaign.Run", round.id, 0)
			res, err := runCampaign1(c)
			sp.end()
			r.trials += n
			if err != nil {
				fmt.Printf("# attack-campaign: %s session %d: %v\n", name, si, err)
				r.failed += n
				continue
			}
			r.cfChanged += res.CFChanged
			r.detected += res.Detected
		}
		el := time.Since(tp)
		r.perProgram[name] += el
		r.trialUs = append(r.trialUs, float64(el)/1e3/campaignAttacks)
	}
	r.elapsed = time.Since(t0)
	round.end()
	return r
}

// runCampaign1 runs one campaign, turning the golden-run false-positive
// panic into an error.
func runCampaign1(c *attack.Campaign) (res *attack.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	return c.Run(), nil
}

// roundSeed derives round r's campaign seed from the workload seed
// (splitmix64), so rounds and seeds draw independent trials.
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// runCampaign is attack-campaign: the paper's Figure 7 detection
// campaign, in-process, round after round for the measured time. It
// never touches server or wire; its detector path is ipds.Attach →
// Machine.OnBranch. Like the serve workloads it runs as reps segments,
// each after its own timed set-up.
func runCampaign(b *bench, dur time.Duration, reps int) (*measured, error) {
	m := newMeasured()
	var rates, trialWin, segRates, segTrial []float64
	var imgs *images
	total := roundResult{perProgram: map[string]time.Duration{}}
	round := 0
	for r := 0; r < reps; r++ {
		b.probe()
		sp := b.spans.start("setup", 0, 0)
		t0 := time.Now()
		var err error
		imgs, err = compileAll(b, sp.id)
		if err != nil {
			return nil, err
		}
		fp, _, _, n := benignStats(b, imgs, sp.id)
		if fp != 0 {
			fmt.Printf("# attack-campaign: %d false positives over %d benign sessions (want 0)\n", fp, n)
			m.failed++
			m.attempted++
		}
		warm := campaignRound(b, imgs, warmSeed, sp.id)
		m.failed += int64(warm.failed)
		m.attempted += int64(warm.trials)
		m.setup = append(m.setup, time.Since(t0))
		sp.end()

		meas := b.spans.start("measure", 0, 0)
		var seg, segWin []float64
		for start := time.Now(); time.Since(start) < dur/time.Duration(reps); round++ {
			rr := campaignRound(b, imgs, roundSeed(b.seed, round), meas.id)
			seg = append(seg, float64(rr.trials)/rr.elapsed.Seconds())
			segWin = append(segWin, median(rr.trialUs))
			total.trials += rr.trials
			total.cfChanged += rr.cfChanged
			total.detected += rr.detected
			total.failed += rr.failed
			for k, d := range rr.perProgram {
				total.perProgram[k] += d
			}
		}
		meas.end()
		rates = append(rates, seg...)
		trialWin = append(trialWin, segWin...)
		segRates = append(segRates, median(seg))
		segTrial = append(segTrial, median(segWin))
	}
	m.attempted += int64(total.trials)
	m.failed += int64(total.failed)
	m.e2e["throughput_per_s"] = segmentMean(segRates)
	m.e2e["latency_p50_us"] = segmentMean(segTrial)
	fmt.Printf("# attack-campaign: %d rounds, %d trials; wall-clock rate p25/p50/p75 = %.1f/%.1f/%.1f trials/s; cf-changed %d, detected %d (%.1f%% of cf-changed)\n",
		len(rates), total.trials, quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75),
		total.cfChanged, total.detected, 100*float64(total.detected)/float64(max(total.cfChanged, 1)))
	fmt.Printf("# attack-campaign: per-round p50 trial time p25/p50/p75 = %.1f/%.1f/%.1f us\n",
		quantile(trialWin, 0.25), quantile(trialWin, 0.5), quantile(trialWin, 0.75))
	fmt.Printf("# attack-campaign: wall-clock median rate per segment %.1f trials/s; p50 trial time per segment %.1f us\n",
		segRates, segTrial)
	for _, name := range imgs.order {
		m.layer["attack.trial_us."+name] = float64(total.perProgram[name].Microseconds()) / float64(round*campaignAttacks)
	}
	return m, nil
}
