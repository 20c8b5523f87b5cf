package secbench

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"securetlb/internal/checkpoint"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
)

// unseededDesigns are the designs whose units collapse to one trial.
var unseededDesigns = []Design{DesignSA, DesignSP, DesignFA, DesignFS}

// vulnSets are the two campaign lists: Table 2's 24 and Appendix B's.
var vulnSets = []struct {
	name     string
	extended bool
	vulns    func() []model.Vulnerability
}{
	{"base", false, model.Enumerate},
	{"appendixB", true, model.EnumerateExtended},
}

// runReport runs cfg's campaign and fails the test on an error.
func runReport(t *testing.T, cfg Config, vulns []model.Vulnerability, opts RunOptions) CampaignReport {
	t.Helper()
	rep, err := cfg.RunCampaign(context.Background(), vulns, opts)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Design, err)
	}
	return rep
}

// TestCollapsedMatchesPerTrial: on every unseeded design, both campaign
// lists and both behaviours, a collapsed campaign (one trial per unit)
// reports exactly what a DisableTrace campaign (every trial executed in
// full) reports, at 64 and 500 trials, on 1 and 4 workers, and when
// interrupted and resumed from a checkpoint.
func TestCollapsedMatchesPerTrial(t *testing.T) {
	for _, d := range unseededDesigns {
		for _, set := range vulnSets {
			vulns := set.vulns()
			for _, trials := range []int{64, 500} {
				cfg := testConfig(d, trials)
				full := cfg
				full.DisableTrace = true
				want := runReport(t, full, vulns, RunOptions{Parallelism: 4})
				if want.Simulated != 2*trials*len(vulns) {
					t.Fatalf("%s %s: DisableTrace simulated %d trials, want all %d",
						d, set.name, want.Simulated, 2*trials*len(vulns))
				}
				if len(want.Quarantined) != 0 {
					t.Fatalf("%s %s: reference quarantined %d trials", d, set.name, len(want.Quarantined))
				}
				for _, workers := range []int{1, 4} {
					got := runReport(t, cfg, vulns, RunOptions{Parallelism: workers})
					if got.Simulated != 2*len(vulns) {
						t.Errorf("%s %s %d trials, %d workers: simulated %d, want one per unit (%d)",
							d, set.name, trials, workers, got.Simulated, 2*len(vulns))
					}
					if !reflect.DeepEqual(got.Results, want.Results) || len(got.Quarantined) != 0 {
						t.Errorf("%s %s %d trials, %d workers: collapsed campaign differs from per-trial execution",
							d, set.name, trials, workers)
					}
				}
				checkCollapsedResume(t, cfg, set.extended, vulns, want.Results)
			}
		}
	}
}

// cancelAfter is a context that cancels itself on the n-th call to Err: an
// interrupt for campaigns that run no per-trial hook to cancel from.
type cancelAfter struct {
	context.Context
	mu   sync.Mutex
	n    int
	done chan struct{}
}

func newCancelAfter(n int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		if c.n--; c.n == 0 {
			close(c.done)
		}
	}
	if c.n == 0 {
		return context.Canceled
	}
	return nil
}

// checkCollapsedResume interrupts a collapsed checkpointed campaign partway
// and resumes it: the merged results must equal want, and the resumed run
// must simulate one trial for each unit the checkpoint did not hold.
func checkCollapsedResume(t *testing.T, cfg Config, extended bool, vulns []model.Vulnerability, want []Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.json")
	fp := cfg.Fingerprint(extended)
	ck1, err := checkpoint.Open(path, fp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cfg.RunCampaign(newCancelAfter(len(vulns)), vulns, RunOptions{Parallelism: 1, Checkpoint: ck1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: interrupted run err = %v, want context.Canceled", cfg.Design, err)
	}
	done := ck1.Len()
	if done == 0 || done == 2*len(vulns) {
		t.Fatalf("%s: the interrupt left %d of %d units checkpointed; it must land mid-campaign",
			cfg.Design, done, 2*len(vulns))
	}
	ck2, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	got := runReport(t, cfg, vulns, RunOptions{Parallelism: 2, Checkpoint: ck2})
	if !reflect.DeepEqual(got.Results, want) || len(got.Quarantined) != 0 {
		t.Errorf("%s %d trials: resumed collapsed campaign differs from per-trial execution", cfg.Design, cfg.Trials)
	}
	if got.Simulated != 2*len(vulns)-done {
		t.Errorf("%s: resumed run simulated %d trials, want one for each of the %d units left",
			cfg.Design, got.Simulated, 2*len(vulns)-done)
	}
}

// TestCollapseFallbackQuarantinesEveryTrial: when a unit's one trial fails
// (here a budget below the trial's length), the unit runs trial by trial and
// quarantines all of them, with records identical to per-trial execution.
func TestCollapseFallbackQuarantinesEveryTrial(t *testing.T) {
	const trials = 16
	vulns := model.Enumerate()[:3]
	for _, d := range unseededDesigns {
		cfg := testConfig(d, trials)
		cfg.MaxInstr = 5
		full := cfg
		full.DisableTrace = true
		for _, workers := range []int{1, 4} {
			want := runReport(t, full, vulns, RunOptions{Parallelism: workers})
			got := runReport(t, cfg, vulns, RunOptions{Parallelism: workers})
			if len(got.Quarantined) != 2*trials*len(vulns) {
				t.Fatalf("%s: %d trials quarantined, want all %d", d, len(got.Quarantined), 2*trials*len(vulns))
			}
			for _, q := range got.Quarantined {
				if q.Kind != "fuel-exhausted" {
					t.Fatalf("%s trial %d: kind %q, want fuel-exhausted", d, q.Trial, q.Kind)
				}
			}
			if !reflect.DeepEqual(got.Quarantined, want.Quarantined) || !reflect.DeepEqual(got.Results, want.Results) {
				t.Errorf("%s, %d workers: the fallback's report differs from per-trial execution", d, workers)
			}
			// The failed trial, then every trial of the unit.
			if wantSim := 2 * len(vulns) * (trials + 1); got.Simulated != wantSim {
				t.Errorf("%s: simulated %d trials, want %d", d, got.Simulated, wantSim)
			}
		}
	}
}

// TestCollapseExclusions pins what never collapses: the seeded designs, and
// an unseeded design under the assertion monitor, an armed fault site, an
// Inject hook or DisableTrace. Each runs every trial.
func TestCollapseExclusions(t *testing.T) {
	const trials = 12
	vulns := model.Enumerate()[:2]
	all := 2 * trials * len(vulns)
	sa := testConfig(DesignSA, trials)
	if got := runReport(t, sa, vulns, RunOptions{}).Simulated; got != 2*len(vulns) {
		t.Fatalf("clean SA simulated %d trials, want %d: the exclusions below would be vacuous", got, 2*len(vulns))
	}
	cases := map[string]func(*Config){
		"RF":           func(c *Config) { c.Design = DesignRF },
		"RI":           func(c *Config) { *c = testConfig(DesignRI, trials) },
		"Invariants":   func(c *Config) { c.Invariants = true },
		"FaultSite":    func(c *Config) { c.FaultSite, c.FaultSeed = faultinject.SiteDropFill, 0xfa117 },
		"Inject":       func(c *Config) { c.Inject = func(model.Vulnerability, bool, int) uint64 { return 0 } },
		"DisableTrace": func(c *Config) { c.DisableTrace = true },
	}
	for name, mod := range cases {
		cfg := sa
		mod(&cfg)
		if cfg.collapses() {
			t.Errorf("%s: config collapses", name)
		}
		if got := runReport(t, cfg, vulns, RunOptions{}).Simulated; got != all {
			t.Errorf("%s: simulated %d trials, want all %d", name, got, all)
		}
	}
}

// TestSimulatedCounts: at the paper's 500 trials, an unseeded design's Table
// 4 campaign simulates one trial per unit, 2·24, and RF simulates all.
func TestSimulatedCounts(t *testing.T) {
	vulns := model.Enumerate()
	for _, tc := range []struct {
		design Design
		want   int
	}{
		{DesignSA, 2 * len(vulns)},
		{DesignRF, 2 * 500 * len(vulns)},
	} {
		rep := runReport(t, testConfig(tc.design, 500), vulns, RunOptions{})
		if rep.Simulated != tc.want {
			t.Errorf("%s: simulated %d trials, want %d", tc.design, rep.Simulated, tc.want)
		}
	}
}
