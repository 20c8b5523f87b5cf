package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securetlb/internal/checkpoint"
	"securetlb/internal/report"
	"securetlb/internal/secbench"
)

// buildSecbench compiles the secbench binary into a temp dir once per test
// run.
func buildSecbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "secbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptResumeBitIdentical is the end-to-end acceptance check for
// the ISSUE's resume contract: a SIGINT-interrupted secbench run resumed
// via -resume produces stdout bit-identical to an uninterrupted run.
func TestInterruptResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildSecbench(t)
	// Trials are sized so the campaign runs a few seconds: the SIGINT below
	// must land while most work units are still outstanding, or the test
	// would only exercise the finalize path.
	args := []string{"-design", "rf", "-trials", "20000", "-json"}

	// Reference: one uninterrupted run.
	var ref bytes.Buffer
	refCmd := exec.Command(bin, args...)
	refCmd.Stdout = &ref
	refCmd.Stderr = os.Stderr
	if err := refCmd.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: SIGINT as soon as the first checkpoint flush lands.
	ckPath := filepath.Join(t.TempDir(), "campaign.json")
	intCmd := exec.Command(bin, append(args, "-checkpoint", ckPath, "-checkpoint-every", "1")...)
	intCmd.Stdout = new(bytes.Buffer)
	if err := intCmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Until the Wait below reaps it, a failing test kills and reaps the run
	// on cleanup, so no campaign outlives the test.
	reaped := false
	t.Cleanup(func() {
		if !reaped {
			intCmd.Process.Kill()
			intCmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint flush within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := intCmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := intCmd.Wait()
	reaped = true
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted run exited without error (%v): campaign finished before the signal landed", err)
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted run exit code = %d, want 130", code)
	}
	// Read the interrupted run's checkpoint the way -resume will, with the
	// campaign the flags above select (-fault-seed at its default).
	cfg := secbench.DefaultConfig(secbench.DesignRF)
	cfg.Trials = 20000
	cfg.FaultSeed = 0xfa115eed
	ck, err := checkpoint.Open(ckPath, cfg.Fingerprint(false), 1, true)
	if err != nil {
		t.Fatalf("checkpoint not resumable after interrupt: %v", err)
	}
	if n := ck.Len(); n == 0 || n >= 48 {
		t.Logf("interrupt landed with %d/48 units complete; timing did not split the campaign", n)
	} else {
		t.Logf("interrupt landed with %d/48 units complete", n)
	}

	// Resume: must complete and reproduce the reference byte-for-byte.
	var res bytes.Buffer
	resCmd := exec.Command(bin, append(args, "-checkpoint", ckPath, "-resume")...)
	resCmd.Stdout = &res
	resCmd.Stderr = os.Stderr
	if err := resCmd.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !bytes.Equal(res.Bytes(), ref.Bytes()) {
		t.Errorf("resumed stdout differs from uninterrupted run (%d vs %d bytes)", res.Len(), ref.Len())
	}
}

func TestValidateFlags(t *testing.T) {
	designs, err := validateFlags("all", 500, 0, 4, "", false, false, "")
	if err != nil {
		t.Fatalf("valid defaults rejected: %v", err)
	}
	if len(designs) != 3 {
		t.Fatalf("designs for all = %d, want 3", len(designs))
	}
	bad := []struct {
		name                      string
		design                    string
		trials, parallel, ckEvery int
		emit                      string
		extended, resume          bool
		ckPath                    string
	}{
		{"unknown design", "xx", 500, 0, 4, "", false, false, ""},
		{"zero trials", "sa", 0, 0, 4, "", false, false, ""},
		{"negative trials", "sa", -5, 0, 4, "", false, false, ""},
		{"negative parallel", "sa", 500, -1, 4, "", false, false, ""},
		{"zero checkpoint-every", "sa", 500, 0, 0, "", false, false, ""},
		{"resume without checkpoint", "sa", 500, 0, 4, "", false, true, ""},
		{"unknown emit pattern", "sa", 500, 0, 4, "Zz -> Zz -> Zz", false, false, ""},
	}
	for _, tc := range bad {
		if _, err := validateFlags(tc.design, tc.trials, tc.parallel, tc.ckEvery, tc.emit, tc.extended, tc.resume, tc.ckPath); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestQuarantineRowsRendering(t *testing.T) {
	qs := []secbench.Quarantined{
		{
			Design: "SA TLB", Strategy: "TLB Flush + Reload",
			Pattern: "Ad -> Vu -> Aa", Observation: "fast",
			Mapped: true, Trial: 3, Seed: 0x1234,
			Kind: "invariant", Reason: "invariant violation [SA TLB] fill-present",
		},
		{
			Design: "RF TLB", Strategy: "Evict + Time",
			Pattern: "Vd -> Vu -> Va", Observation: "slow",
			Mapped: false, Trial: 17, Seed: 0xbeef,
			Kind: "panic", Reason: "runtime error: index out of range",
		},
	}
	rows := quarantineRows(qs)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0][2] != "mapped" || rows[1][2] != "not-mapped" {
		t.Errorf("behaviour column wrong: %q / %q", rows[0][2], rows[1][2])
	}
	out := report.Quarantine(rows)
	for _, want := range []string{"Ad -> Vu -> Aa (fast)", "0x1234", "invariant", "not-mapped", "17"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered quarantine missing %q:\n%s", want, out)
		}
	}
	// The empty case renders nothing — runDesign prints it unconditionally.
	if report.Quarantine(quarantineRows(nil)) != "" {
		t.Error("empty quarantine list produced output")
	}
}

// TestFreshCheckpointRefusesExistingFile: starting a new campaign over an
// existing checkpoint without -resume must fail rather than clobber it.
func TestFreshCheckpointRefusesExistingFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildSecbench(t)
	ckPath := filepath.Join(t.TempDir(), "ck.json")
	run := exec.Command(bin, "-design", "sa", "-trials", "2", "-json", "-checkpoint", ckPath)
	if out, err := run.CombinedOutput(); err != nil {
		t.Fatalf("first run: %v\n%s", err, out)
	}
	again := exec.Command(bin, "-design", "sa", "-trials", "2", "-json", "-checkpoint", ckPath)
	out, err := again.CombinedOutput()
	if err == nil {
		t.Fatalf("second run without -resume succeeded:\n%s", out)
	}
}

// TestStderrReportsSimulatedTrials: in table and -json mode alike, each
// design's campaign says on stderr how many of its credited trials it
// simulated, and stdout carries none of it.
func TestStderrReportsSimulatedTrials(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildSecbench(t)
	for _, mode := range [][]string{nil, {"-json"}} {
		var stdout, stderr bytes.Buffer
		run := exec.Command(bin, append([]string{"-design", "sa,rf", "-trials", "30"}, mode...)...)
		run.Stdout, run.Stderr = &stdout, &stderr
		if err := run.Run(); err != nil {
			t.Fatalf("%v: %v\n%s", mode, err, stderr.String())
		}
		for _, want := range []string{
			"secbench: SA TLB: simulated 48 of 1440 trials\n",
			"secbench: RF TLB: simulated 1440 of 1440 trials\n",
		} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%v: stderr lacks %q:\n%s", mode, want, stderr.String())
			}
		}
		if strings.Contains(stdout.String(), "simulated") {
			t.Errorf("%v: stdout reports simulated trials", mode)
		}
	}
}
