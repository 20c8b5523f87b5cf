package secbench

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"securetlb/internal/checkpoint"
	"securetlb/internal/cpu"
	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// TestResilientCleanMatchesParallel: with nothing injected and a live
// context, RunAllCtx on its default pool is bit-identical to the serial
// reference, one worker running every unit as a single shard.
func TestResilientCleanMatchesParallel(t *testing.T) {
	cfg := testConfig(DesignRF, 30)
	want := runClean(t, cfg, model.Enumerate(), 1)
	report, err := cfg.RunAllCtx(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Results, want) {
		t.Error("default-pool results differ from the serial reference")
	}
	if len(report.Quarantined) != 0 {
		t.Errorf("clean run quarantined %d trials", len(report.Quarantined))
	}
}

// TestInjectedFailuresQuarantined is the acceptance scenario: a campaign
// with one injected panicking trial and one injected non-halting trial
// completes, reports both in the quarantine summary, and its statistics over
// the surviving trials are bit-identical to a serial run over the same
// surviving trial indices.
func TestInjectedFailuresQuarantined(t *testing.T) {
	const trials = 10
	vulns := model.Enumerate()[:3]
	target := vulns[1]
	cfg := testConfig(DesignRF, trials)
	cfg.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		if v.Pattern.String() != target.Pattern.String() || v.Observation != target.Observation || !mapped {
			return 0
		}
		switch trial {
		case 3:
			panic("injected trial crash")
		case 5:
			return 1 // one instruction of fuel: the watchdog must fire
		}
		return 0
	}
	report, err := cfg.RunCampaign(context.Background(), vulns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != len(vulns) {
		t.Fatalf("campaign did not complete: %d/%d results", len(report.Results), len(vulns))
	}
	if len(report.Quarantined) != 2 {
		t.Fatalf("quarantined = %+v, want 2 entries", report.Quarantined)
	}
	q3, q5 := report.Quarantined[0], report.Quarantined[1]
	if q3.Trial != 3 || q3.Kind != "panic" || !q3.Mapped {
		t.Errorf("entry 0 = %+v", q3)
	}
	if q5.Trial != 5 || q5.Kind != "fuel-exhausted" || !q5.Mapped {
		t.Errorf("entry 1 = %+v", q5)
	}
	for _, q := range report.Quarantined {
		if q.Seed != cfg.trialSeed(q.Trial, q.Mapped) {
			t.Errorf("recorded seed %#x does not reproduce trial %d", q.Seed, q.Trial)
		}
		if q.Design != cfg.Design.String() || q.Pattern != target.Pattern.String() {
			t.Errorf("quarantine provenance = %+v", q)
		}
	}

	// The surviving-trial statistics must match a serial run over exactly
	// the surviving indices, on fresh machines.
	clean := cfg
	clean.Inject = nil
	for _, res := range report.Results {
		v := res.Vulnerability
		isTarget := v.Pattern.String() == target.Pattern.String() && v.Observation == target.Observation
		for _, mapped := range []bool{true, false} {
			survivors, misses := 0, 0
			for trial := 0; trial < trials; trial++ {
				if isTarget && mapped && (trial == 3 || trial == 5) {
					continue
				}
				miss, err := clean.ReplayTrial(v, mapped, trial)
				if err != nil {
					t.Fatalf("%s trial %d: %v", v, trial, err)
				}
				survivors++
				if miss {
					misses++
				}
			}
			gotN, gotM := res.Counts.Mapped, res.Counts.MappedMisses
			if !mapped {
				gotN, gotM = res.Counts.NotMapped, res.Counts.NotMappedMisses
			}
			if gotN != survivors || gotM != misses {
				t.Errorf("%s mapped=%v: counts %d/%d, serial reference %d/%d",
					v, mapped, gotM, gotN, misses, survivors)
			}
		}
	}
}

// TestQuarantineDoesNotPerturbOtherTrials: the same campaign with and
// without injected failures yields identical per-trial outcomes for every
// surviving trial (the quarantined trials simply vanish from the counts).
func TestQuarantineDoesNotPerturbOtherTrials(t *testing.T) {
	vulns := model.Enumerate()[:1]
	cfg := testConfig(DesignRF, 12)
	clean, err := cfg.RunCampaign(context.Background(), vulns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		if mapped && trial == 0 {
			panic("injected")
		}
		return 0
	}
	faulty, err := cfg.RunCampaign(context.Background(), vulns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := clean.Results[0].Counts, faulty.Results[0].Counts
	if c1.Mapped != c0.Mapped-1 {
		t.Errorf("mapped survivors = %d, want %d", c1.Mapped, c0.Mapped-1)
	}
	if c1.NotMapped != c0.NotMapped || c1.NotMappedMisses != c0.NotMappedMisses {
		t.Errorf("not-mapped behaviour perturbed: %+v vs %+v", c1, c0)
	}
	// The mapped miss count may differ by at most the excluded trial's own
	// contribution.
	if d := c0.MappedMisses - c1.MappedMisses; d != 0 && d != 1 {
		t.Errorf("mapped misses %d -> %d: more than trial 0's contribution changed", c0.MappedMisses, c1.MappedMisses)
	}
}

func TestClassifyTrialErr(t *testing.T) {
	cases := []struct {
		err     error
		kind    string
		quarant bool
	}{
		{&pool.PanicError{Value: "boom"}, "panic", true},
		{fmt.Errorf("trial: %w", cpu.ErrFuelExhausted), "fuel-exhausted", true},
		{&cpu.FaultError{PC: 3, Err: errors.New("bad access")}, "fault", true},
		{fmt.Errorf("%w (exit code 1)", ErrBenchFailed), "bench-failed", true},
		{errors.New("disk full"), "", false},
		{context.Canceled, "", false},
	}
	for _, c := range cases {
		kind, ok := classifyTrialErr(c.err)
		if kind != c.kind || ok != c.quarant {
			t.Errorf("classifyTrialErr(%v) = %q, %v; want %q, %v", c.err, kind, ok, c.kind, c.quarant)
		}
	}
}

// TestCampaignCancellation: cancelling mid-campaign returns the context
// error and a well-formed partial report whose entries match a clean run.
func TestCampaignCancellation(t *testing.T) {
	vulns := model.Enumerate()
	cfg := testConfig(DesignSA, 6)
	clean, err := cfg.RunCampaign(context.Background(), vulns, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byVuln := map[string]Result{}
	for _, r := range clean.Results {
		byVuln[r.Vulnerability.String()] = r
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	interrupted := cfg
	interrupted.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		// Cancel from inside a running trial of the 12th vulnerability:
		// everything already started must drain, nothing new is admitted.
		if v.Pattern.String() == vulns[11].Pattern.String() && v.Observation == vulns[11].Observation {
			once.Do(cancel)
		}
		return 0
	}
	partial, err := interrupted.RunCampaign(ctx, vulns, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial.Results) >= len(vulns) {
		t.Fatalf("campaign claiming completion after cancellation: %d results", len(partial.Results))
	}
	for _, r := range partial.Results {
		want, ok := byVuln[r.Vulnerability.String()]
		if !ok {
			t.Fatalf("unknown vulnerability in partial report: %s", r.Vulnerability)
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("partial result for %s differs from clean run", r.Vulnerability)
		}
	}
}

// TestCancelledBeforeStart: a pre-cancelled context yields no results, no
// quarantine, and the typed context error.
func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig(DesignSA, 4)
	report, err := cfg.RunCampaign(ctx, model.Enumerate()[:4], RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(report.Results) != 0 || len(report.Quarantined) != 0 {
		t.Errorf("report = %+v, want empty", report)
	}
}

// TestCheckpointResumeBitIdentical is the acceptance scenario for resume: on
// every design, a campaign over all 24 vulnerabilities interrupted mid-run
// and resumed from its checkpoint produces results bit-identical to an
// uninterrupted serial run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, d := range AllDesigns() {
		checkResumeBitIdentical(t, testConfig(d, 6))
	}
}

func checkResumeBitIdentical(t *testing.T, cfg Config) {
	t.Helper()
	want := CampaignReport{Results: runClean(t, cfg, model.Enumerate(), 1)}

	path := filepath.Join(t.TempDir(), "campaign.json")
	fp := cfg.Fingerprint(false)

	// Stage 1: run with a checkpoint and cancel mid-campaign from inside a
	// trial, leaving some units recorded and others not.
	ck1, err := checkpoint.Open(path, fp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	stage1 := cfg
	stage1.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		if v.Pattern.String() == model.Enumerate()[10].Pattern.String() {
			once.Do(cancel)
		}
		return 0
	}
	partial, err := stage1.RunAllCtx(ctx, RunOptions{Checkpoint: ck1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: stage 1 err = %v, want context.Canceled", cfg.Design, err)
	}
	t.Logf("%s stage 1: %d/%d vulnerabilities complete, %d units checkpointed",
		cfg.Design, len(partial.Results), len(want.Results), ck1.Len())

	// Stage 2: resume. Completed units come from the checkpoint, the rest
	// run live; the merged report must be bit-identical to the clean run.
	ck2, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cfg.RunAllCtx(context.Background(), RunOptions{Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated counts only the units stage 2 ran.
	got.Simulated = 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: resumed campaign differs from uninterrupted run", cfg.Design)
	}
	if ck2.Len() != 2*len(want.Results) {
		t.Errorf("%s: checkpoint holds %d units, want %d", cfg.Design, ck2.Len(), 2*len(want.Results))
	}
}

// TestCheckpointPersistsQuarantine: quarantine entries survive the
// checkpoint round trip, so a resumed campaign still reports them.
func TestCheckpointPersistsQuarantine(t *testing.T) {
	vulns := model.Enumerate()[:2]
	cfg := testConfig(DesignSA, 5)
	cfg.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		if mapped && trial == 2 && v.Pattern.String() == vulns[0].Pattern.String() && v.Observation == vulns[0].Observation {
			panic("injected")
		}
		return 0
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, err := checkpoint.Open(path, cfg.Fingerprint(false), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cfg.RunCampaign(context.Background(), vulns, RunOptions{Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v", first.Quarantined)
	}

	// Re-run entirely from the checkpoint: no injection this time, yet the
	// recorded quarantine entry must reappear and the counts must match.
	resumed := cfg
	resumed.Inject = nil
	ck2, err := checkpoint.Open(path, cfg.Fingerprint(false), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	second, err := resumed.RunCampaign(context.Background(), vulns, RunOptions{Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Simulated != 0 {
		t.Errorf("a run read wholly from the checkpoint simulated %d trials", second.Simulated)
	}
	second.Simulated = first.Simulated
	if !reflect.DeepEqual(second, first) {
		t.Error("resumed report differs from original")
	}
}

// TestReplayTrialMatchesCampaign: ReplayTrial on a fresh machine reproduces
// the exact per-trial outcome of a sharded campaign — the determinism that
// makes quarantine triage from the recorded (behaviour, trial) possible.
func TestReplayTrialMatchesCampaign(t *testing.T) {
	cfg := testConfig(DesignRF, 8)
	v := model.Enumerate()[7]
	res := runCleanOne(t, cfg, v, 4)
	misses := 0
	for trial := 0; trial < cfg.Trials; trial++ {
		miss, err := cfg.ReplayTrial(v, true, trial)
		if err != nil {
			t.Fatal(err)
		}
		if miss {
			misses++
		}
	}
	if misses != res.Counts.MappedMisses {
		t.Errorf("replayed misses = %d, campaign counted %d", misses, res.Counts.MappedMisses)
	}
}

// TestCancellationStopsShardWithinStride: a shard checks its context once
// per ctxStride trials, so a campaign cancelled from inside a trial runs at
// most one stride more of that shard and then reports the cancellation,
// discarding the partial unit.
func TestCancellationStopsShardWithinStride(t *testing.T) {
	const cancelAt = 10
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := testConfig(DesignSA, 20*ctxStride)
	calls := 0
	cfg.Inject = func(v model.Vulnerability, mapped bool, trial int) uint64 {
		calls++
		if calls == cancelAt {
			cancel()
		}
		return 0
	}
	report, err := cfg.RunCampaign(ctx, model.Enumerate()[:1], RunOptions{Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(report.Results) != 0 {
		t.Errorf("cancelled campaign reported %d results", len(report.Results))
	}
	if calls > ctxStride {
		t.Errorf("%d trials ran, want at most one stride (%d) after cancelling at trial %d", calls, ctxStride, cancelAt)
	}
}
