package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"securetlb/internal/job"
)

// buildDaemon compiles the tlbserved binary into a temp dir once per test.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tlbserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running tlbserved process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	stopped bool // stop has reaped the process
}

// startDaemon launches the binary against dir and waits for the address
// file to learn its base URL. Unless stop reaps the daemon first, the
// test's cleanup kills and reaps it, so a test that fails early leaves no
// daemon serving.
func startDaemon(t *testing.T, bin, dir string) *daemon {
	t.Helper()
	// A restart over a used data dir must not race us onto the previous
	// daemon's stale address.
	addrPath := filepath.Join(dir, addrFile)
	os.Remove(addrPath)
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir, "-parallel", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if !d.stopped {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		raw, err := os.ReadFile(addrPath)
		if err == nil && len(raw) > 0 {
			d.base = "http://" + strings.TrimSpace(string(raw))
			return d
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its address file")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop SIGTERMs the daemon and asserts a clean (exit 0) drain.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := d.cmd.Wait()
	d.stopped = true
	if err != nil {
		t.Fatalf("daemon exited uncleanly: %v", err)
	}
}

func (d *daemon) submit(t *testing.T, spec string) string {
	t.Helper()
	resp, err := http.Post(d.base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	return sub.ID
}

func (d *daemon) waitDone(t *testing.T, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(d.base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j job.Job
		err = json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch j.State {
		case job.StateDone:
			return
		case job.StateFailed:
			t.Fatalf("job failed: %s", j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after %s", j.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *daemon) result(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// TestSigtermRestartBitIdentical is the daemon's end-to-end acceptance
// check: SIGTERM mid-campaign, restart over the same data directory, and the
// resumed job's result is byte-identical to one computed by an uninterrupted
// daemon.
func TestSigtermRestartBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	// Sized like cmd/secbench's interrupt test: a few seconds of work, so
	// the SIGTERM lands while most units are outstanding.
	const spec = `{"kind":"secbench","design":"rf","trials":20000}`

	// Reference: an uninterrupted daemon runs the campaign to completion.
	ref := startDaemon(t, bin, t.TempDir())
	refID := ref.submit(t, spec)
	ref.waitDone(t, refID, 5*time.Minute)
	want := ref.result(t, refID)
	ref.stop(t)

	// Interrupted: SIGTERM as soon as the job's first checkpoint flush
	// lands, then assert the drain parked it for the next daemon.
	dir := t.TempDir()
	d := startDaemon(t, bin, dir)
	id := d.submit(t, spec)
	if id != refID {
		t.Fatalf("content address differs across daemons: %s vs %s", id, refID)
	}
	ckPath := filepath.Join(dir, id+".ckpt.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint flush within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop(t)

	raw, err := os.ReadFile(filepath.Join(dir, id+".job.json"))
	if err != nil {
		t.Fatalf("job record missing after drain: %v", err)
	}
	var parked job.Job
	if err := json.Unmarshal(raw, &parked); err != nil {
		t.Fatal(err)
	}
	if parked.State != job.StatePending {
		t.Fatalf("drained job parked as %s, want pending", parked.State)
	}

	// Restart over the same directory: the job resumes from its checkpoint
	// and completes without a new submission.
	d2 := startDaemon(t, bin, dir)
	d2.waitDone(t, id, 5*time.Minute)
	got := d2.result(t, id)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The resumed execution must not have restarted from scratch: the
	// record counts two runner starts for one submission.
	var done job.Job
	if err := json.Unmarshal(mustRead(t, filepath.Join(dir, id+".job.json")), &done); err != nil {
		t.Fatal(err)
	}
	if done.Executions != 2 {
		t.Errorf("executions across restart = %d, want 2", done.Executions)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
	d2.stop(t)
}

// TestDrainRejectsLateSubmissions: a daemon with no work SIGTERMs cleanly,
// and its metrics endpoint serves while it is up.
func TestMetricsAndCleanShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, t.TempDir())
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"tlbserved_submissions_total 0", "tlbserved_pool_workers 2"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("metrics missing %q:\n%s", want, raw)
		}
	}
	d.stop(t)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
