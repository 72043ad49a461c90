package attack

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// campaignDigest pins every trial of a fixed sweep: the SHA-256 of the
// %+v of each Trial, over every workload × both models × both timings
// × every benign session. It was computed with the campaign that built
// a fresh VM and detector per trial; the reusing campaign must match it
// trial for trial.
const campaignDigest = "b30592b44d775618ae00f3fb8b83d3daa916b33d638ada7a8122236184c10679"

// digestAttacks is the attack count of each campaign of the sweep.
const digestAttacks = 20

func TestCampaignDigestPinned(t *testing.T) {
	h := sha256.New()
	trials, faulted := 0, 0
	for wi, w := range workload.All() {
		art, err := pipeline.Compile(w.Source, ir.DefaultOptions)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, model := range []Model{Overflow, ArbitraryWrite} {
			for _, timing := range []Timing{AtInput, AtAnyStep} {
				for si, session := range w.Sessions() {
					c := &Campaign{
						Name:      w.Name,
						Artifacts: art,
						Input:     session,
						Model:     model,
						Timing:    timing,
						Attacks:   digestAttacks,
						Seed:      int64(1000*wi + 100*int(model) + 10*int(timing) + si),
					}
					for _, tr := range c.Run().Trials {
						fmt.Fprintf(h, "%s/%d/%d/%d %+v\n", w.Name, model, timing, si, tr)
						trials++
						if tr.Faulted {
							faulted++
						}
					}
				}
			}
		}
	}
	t.Logf("%d trials, %d faulted", trials, faulted)
	if got := hex.EncodeToString(h.Sum(nil)); got != campaignDigest {
		t.Fatalf("campaign digest over %d trials = %s, want %s", trials, got, campaignDigest)
	}
}
