package secbench

import (
	"context"
	"reflect"
	"testing"

	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/tlb"
)

// replayTestConfig is DefaultConfig shrunk to guard-test scale: enough trials
// for counter divergence to surface, few enough to keep the A/B sweeps fast.
func replayTestConfig(d Design) Config {
	c := DefaultConfig(d)
	c.Trials = 60
	return c
}

// replayTestVulns spans the pattern/observation space without running all 24
// vulnerabilities per design and mode.
func replayTestVulns(t *testing.T) []model.Vulnerability {
	t.Helper()
	all := model.Enumerate()
	var out []model.Vulnerability
	for _, i := range []int{0, 5, 11, 17, 23} {
		if i < len(all) {
			out = append(out, all[i])
		}
	}
	return out
}

// TestReplayCampaignActive pins down that the trace path is actually taken:
// a traceable config's campaigns carry a replay VM, and the two opt-out
// conditions (DisableTrace, armed fault injection) route to full execution.
func TestReplayCampaignActive(t *testing.T) {
	v := model.Enumerate()[0]
	for _, d := range AllDesigns() {
		c := replayTestConfig(d)
		camp, err := c.newCampaign(v, true)
		if err != nil {
			t.Fatalf("%s: newCampaign: %v", d, err)
		}
		if camp.vm == nil || camp.tr == nil {
			t.Errorf("%s: traceable campaign did not get a replay VM", d)
		}
		clone, err := camp.clone()
		if err != nil {
			t.Fatalf("%s: clone: %v", d, err)
		}
		if clone.vm == nil || clone.vm == camp.vm || clone.tr != camp.tr {
			t.Errorf("%s: clone must fork the VM and share the trace", d)
		}

		c.DisableTrace = true
		if camp, err = c.newCampaign(v, true); err != nil {
			t.Fatalf("%s: newCampaign(DisableTrace): %v", d, err)
		}
		if camp.vm != nil {
			t.Errorf("%s: DisableTrace campaign got a replay VM", d)
		}

		c.DisableTrace = false
		c.FaultSite = faultinject.SiteDropFill
		if camp, err = c.newCampaign(v, true); err != nil {
			t.Fatalf("%s: newCampaign(FaultSite): %v", d, err)
		}
		if camp.vm != nil {
			t.Errorf("%s: fault-injecting campaign got a replay VM", d)
		}
	}
}

// TestReplayMatchesFullExecution is the bit-identity guard: for every design,
// with and without the invariant checker, replayed campaigns produce Results
// — counts, probabilities, capacity and bootstrap CIs — identical to full
// decode-and-execute, serially (one shard: one whole replay, then the rest
// from the prefix boundary) and trial-sharded over four workers.
func TestReplayMatchesFullExecution(t *testing.T) {
	vulns := replayTestVulns(t)
	for _, d := range AllDesigns() {
		for _, inv := range []bool{false, true} {
			for _, v := range vulns {
				full := replayTestConfig(d)
				full.Invariants = inv
				full.DisableTrace = true
				want := runCleanOne(t, full, v, 1)

				replay := full
				replay.DisableTrace = false
				got := runCleanOne(t, replay, v, 1)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s inv=%v %s: replay diverged:\n full:   %+v\n replay: %+v",
						d, inv, v, want, got)
				}

				par := runCleanOne(t, replay, v, 4)
				if !reflect.DeepEqual(par, want) {
					t.Errorf("%s inv=%v %s: parallel replay diverged:\n full:   %+v\n replay: %+v",
						d, inv, v, want, par)
				}
			}
		}
	}
}

// TestReplayQuarantineIdentity drives the resilient runner with an injected
// per-trial fuel squeeze: replay must meter fuel exactly like full execution,
// quarantining the same trials with the same kinds and completing with the
// same surviving statistics.
func TestReplayQuarantineIdentity(t *testing.T) {
	vulns := replayTestVulns(t)[:2]
	run := func(disable bool) CampaignReport {
		t.Helper()
		c := replayTestConfig(DesignRF)
		c.DisableTrace = disable
		c.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
			if trial%17 == 3 {
				return 10 // starve the trial: fuel-exhausted quarantine
			}
			return 0
		}
		rep, err := c.RunCampaign(context.Background(), vulns, RunOptions{Parallelism: 4})
		if err != nil {
			t.Fatalf("RunCampaign(disable=%v): %v", disable, err)
		}
		return rep
	}
	want, got := run(true), run(false)
	if len(want.Quarantined) == 0 {
		t.Fatalf("fuel squeeze quarantined nothing; the guard is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resilient replay diverged:\n full:   %+v\n replay: %+v", want, got)
	}
}

// TestReplayFaultCampaignUnchanged runs a fault-injection campaign (which
// must bypass tracing) under both settings of DisableTrace; the reports must
// be identical because both take the full-execution path.
func TestReplayFaultCampaignUnchanged(t *testing.T) {
	vulns := replayTestVulns(t)[:1]
	run := func(disable bool) CampaignReport {
		t.Helper()
		c := replayTestConfig(DesignSA)
		c.DisableTrace = disable
		c.FaultSite = faultinject.SiteDropFill
		c.FaultSeed = 0xfa117
		rep, err := c.RunCampaign(context.Background(), vulns, RunOptions{Parallelism: 2})
		if err != nil {
			t.Fatalf("RunCampaign(disable=%v): %v", disable, err)
		}
		return rep
	}
	want, got := run(true), run(false)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("faulted campaign diverged:\n full:   %+v\n replay: %+v", want, got)
	}
}

// flakyReseeder wraps a campaign's reseeder and panics on chosen trial
// seeds: on every attempt for the seeds in fail, on the first attempt only
// for those in once. Before panicking it clears the TLB's secure region,
// standing in for a trial that dies partway through the state its prefix
// programs: only a whole replay programs the region again, so a trial
// replayed from the prefix boundary after the failure runs against the
// cleared region and leaks differently.
type flakyReseeder struct {
	inner      reseeder
	sec        tlb.SecureTLB
	fail, once map[uint64]bool
	calls      map[uint64]int
}

func (f *flakyReseeder) Reseed(seed uint64) {
	f.calls[seed]++
	if f.fail[seed] || (f.once[seed] && f.calls[seed] == 1) {
		f.sec.SetSecureRegion(0, 0)
		panic("injected reseed failure")
	}
	f.inner.Reseed(seed)
}

// TestRunBodyErrorReplaysWhole covers the failure branch of the prefix-split
// trial loop. A trial that fails on the RunBody path is replayed whole: it
// survives when the whole replay succeeds, and when that fails too the
// quarantine record is the whole replay's. A failed trial also sends the
// next one down the whole path, because RunBody is sound only after a
// completed Run on this VM, and a failure on a shard's first trial leaves a
// freshly forked VM that has never run the trace.
func TestRunBodyErrorReplaysWhole(t *testing.T) {
	const trials = 12
	cfg := replayTestConfig(DesignRF)
	cfg.Trials = trials
	for _, v := range replayTestVulns(t) {
		for _, mapped := range []bool{true, false} {
			tmpl, err := cfg.newCampaign(v, mapped)
			if err != nil {
				t.Fatal(err)
			}
			if tmpl.prefix == nil {
				t.Fatalf("%s: no trial-invariant prefix; the RunBody path is not exercised", v)
			}
			cp, err := tmpl.clone()
			if err != nil {
				t.Fatal(err)
			}
			seed := func(trial int) uint64 { return cfg.trialSeed(trial, mapped) }
			flaky := &flakyReseeder{
				inner: cp.rs,
				sec:   cp.machine.TLB.(tlb.SecureTLB),
				fail:  map[uint64]bool{seed(0): true, seed(7): true},
				once:  map[uint64]bool{seed(4): true},
				calls: map[uint64]int{},
			}
			cp.rs = flaky
			u, err := cfg.runTrialsResilient(context.Background(), cp, v, mapped, 0, trials)
			if err != nil {
				t.Fatal(err)
			}

			// Trial 0 has no whole replay to fall back on; trials 4 and 7 fail
			// on the RunBody path and are replayed whole.
			for trial, want := range map[int]int{0: 1, 4: 2, 7: 2} {
				if got := flaky.calls[seed(trial)]; got != want {
					t.Errorf("%s mapped=%v trial %d: %d attempts, want %d", v, mapped, trial, got, want)
				}
			}
			if len(u.Quarantined) != 2 {
				t.Fatalf("%s mapped=%v: quarantined %+v, want trials 0 and 7", v, mapped, u.Quarantined)
			}
			for i, trial := range []int{0, 7} {
				q := u.Quarantined[i]
				if q.Trial != trial || q.Seed != seed(trial) || q.Kind != "panic" || q.Reason != "panic: injected reseed failure" || q.Mapped != mapped {
					t.Errorf("%s: quarantine entry %d = %+v", v, i, q)
				}
			}
			misses := 0
			for trial := 0; trial < trials; trial++ {
				if trial == 0 || trial == 7 {
					continue
				}
				miss, err := cfg.ReplayTrial(v, mapped, trial)
				if err != nil {
					t.Fatal(err)
				}
				if miss {
					misses++
				}
			}
			if u.Survivors != trials-2 || u.Misses != misses {
				t.Errorf("%s mapped=%v: %d misses over %d survivors, whole replays give %d over %d",
					v, mapped, u.Misses, u.Survivors, misses, trials-2)
			}
		}
	}
}
