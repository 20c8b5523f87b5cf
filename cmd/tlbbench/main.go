// Command tlbbench is the repository's benchmark: four workloads on the call
// paths users run (the secbench campaigns behind `secbench -design full`
// and the daemon, the Figure 7 sweep behind perfbench, and a loopback
// tlbserved), their end-to-end metrics, a check that every output is
// correct, and a traced mode that breaks the time down by layer.
//
// Usage, from the repository root:
//
//	go run ./cmd/tlbbench -seed S                      every workload, each in its own process
//	go run ./cmd/tlbbench -workload table4 -seconds 20 one workload
//	go run ./cmd/tlbbench -workload serve -trace 1     the per-layer numbers
//	go run ./cmd/tlbbench compare A/ B/                paired comparison of two run sets
//
// and, from this directory, `go run . -update` regenerates
// testdata/goldens.json.
//
// The last line a run prints is one JSON object: correct, attempted,
// failed and the metrics (end-to-end ones untraced, per-layer ones traced).
// A failed correctness check makes the exit status non-zero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"securetlb/internal/pool"
)

// defaultSeed is secbench's default campaign seed, so a default run renders
// the same tables `secbench -design full` prints.
const defaultSeed = 0x5ecbef1

// workloadNames lists the workloads in the order an all-workloads run uses.
var workloadNames = []string{"table4", "table7-assert", "fig7", "serve"}

// workloadUnits says, per workload, what one unit of work_per_s is and what
// one latency sample times.
var workloadUnits = map[string][2]string{
	"table4":        {"trials per second", "one design's RunAllCtx campaign"},
	"table7-assert": {"trials per second", "one design's RunAllExtendedCtx campaign"},
	"fig7":          {"million simulated instructions per second", "one design's Figure7Pool sweep"},
	"serve":         {"jobs per second", "one job, from sending POST /jobs to receiving its result event"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scratch  string // every file a run writes lives under here
	spans    string // where a traced run writes its spans
	out      string // directory a run record is written to
	history  string // serve set-up probes: the seeded job history to copy
}

// sizes are the amounts of work a run does that the smoke test shrinks to
// one iteration; the benchmark always runs with defaultSizes.
type sizes struct {
	minIters     int // timed iterations at least, whatever the clock says
	maxIters     int // timed iterations at most (0: until the seconds elapse)
	serveHistory int // completed jobs on disk before the daemon opens
	serveRound   int // jobs per serve round at most (0: until the round's reaper periods elapse)
}

var defaultSizes = sizes{
	minIters:     3,
	serveHistory: 400,
}

// setupSamples is how many cold set-ups a run measures: its own and the
// rest in fresh child processes.
const setupSamples = 5

// iteration is what one timed request of a workload did.
type iteration struct {
	work      float64       // units of work (see workloadUnits)
	active    time.Duration // time measured
	latencies []float64     // per-request latency, ms
	attempted int64
	failed    int64
}

// bench is one benchmark workload. Request 0 is the cold set-up; timed
// iterations start at 1. Iterations are deterministic functions of the seed
// and their index, so their correctness digests are too.
type bench interface {
	// setup runs request 0 in a cold process and returns its wall time.
	setup(ctx context.Context) (time.Duration, error)
	// iterate runs request i, tracing its layer calls when tr is non-nil.
	iterate(ctx context.Context, i int, tr *tracer) (iteration, error)
	// verify runs the untimed end-of-run checks over iterations 1..n.
	verify(ctx context.Context, n int) error
	// layers measures every per-layer metric except the pool's, describing
	// iteration traced where the workload exercises a layer.
	layers(ctx context.Context, traced int, tr *tracer) (map[string]float64, error)
	pool() *pool.Pool
	checks() *checks
}

// checks collects failed correctness checks; any makes the run incorrect.
type checks struct {
	mu       sync.Mutex
	problems []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

func (c *checks) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.problems)
}

func (c *checks) list() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.problems...)
}

// env is what every workload shares: its seed, worker pool, scratch space,
// sizes, correctness log and human-readable output.
type env struct {
	seed    uint64
	p       *pool.Pool
	scratch string
	z       sizes
	chk     *checks
	log     io.Writer
}

func (e *env) pool() *pool.Pool { return e.p }
func (e *env) checks() *checks  { return e.chk }

func newWorkload(ctx context.Context, o options, z sizes, log io.Writer) (bench, error) {
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	e := env{seed: o.seed, p: pool.New(0), scratch: o.scratch, z: z, chk: &checks{}, log: log}
	switch o.workload {
	case "table4":
		return newCampaign(e, false), nil
	case "table7-assert":
		return newCampaign(e, true), nil
	case "fig7":
		return newFig7(e), nil
	case "serve":
		return newServe(ctx, e, o.history)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	o := options{}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (empty: every workload, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds the timed loop measures")
	traceFlag := flag.Int("trace", 0, "1: a traced run that reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "tlbbench-work"), "directory for the files a run writes")
	flag.StringVar(&o.spans, "spans", "", "where a traced run writes its spans as JSON lines (default: under -scratch)")
	flag.StringVar(&o.out, "out", "", "directory to write this run's record into, for compare")
	update := flag.Bool("update", false, "regenerate testdata/goldens.json from full execution (run from this directory)")
	setupProbe := flag.Bool("setup-probe", false, "internal: measure one cold set-up and print it")
	flag.StringVar(&o.history, "history", "", "internal: the serve job history a set-up probe copies")
	flag.Parse()
	if flag.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	ctx := context.Background()
	switch {
	case *update:
		if err := updateGoldens(ctx, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tlbbench:", err)
			os.Exit(1)
		}
	case *setupProbe:
		if err := runSetupProbe(ctx, o); err != nil {
			fmt.Fprintln(os.Stderr, "tlbbench:", err)
			os.Exit(1)
		}
	case o.workload == "" || o.workload == "all":
		os.Exit(runAll(ctx, o))
	default:
		os.Exit(runOne(ctx, o))
	}
}

// runOne runs one workload in this process, prints its result line last
// and returns the exit status.
func runOne(ctx context.Context, o options) int {
	o.scratch = filepath.Join(o.scratch, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	defer os.RemoveAll(o.scratch)
	res, err := runWorkload(ctx, o, defaultSizes, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbbench:", err)
		return 1
	}
	if o.out != "" {
		if err := writeRecord(o, res); err != nil {
			fmt.Fprintln(os.Stderr, "tlbbench:", err)
			return 1
		}
	}
	fmt.Println(res.line())
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload end to end: set-up, the timed (or traced)
// loop, the correctness checks and the metrics.
func runWorkload(ctx context.Context, o options, z sizes, log io.Writer) (result, error) {
	w, err := newWorkload(ctx, o, z, log)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "tlbbench %s: seed %d, %d s, GOMAXPROCS %d, pool %d, %s\n",
		o.workload, o.seed, o.seconds, runtime.GOMAXPROCS(0), w.pool().Size(), runtime.Version())
	settle()
	d0, err := w.setup(ctx)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	units := workloadUnits[o.workload]
	var res result
	if !o.trace {
		res, err = timedRun(ctx, o, z, w, d0, units, log)
	} else {
		res, err = tracedRun(ctx, o, z, w, log)
	}
	if err != nil {
		return result{}, err
	}
	chk := w.checks()
	res.Failed += int64(chk.count())
	res.Correct = chk.count() == 0
	for _, p := range chk.list() {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	fmt.Fprintf(log, "correct: %v (attempted %d, failed %d, fail_ratio %g)\n",
		res.Correct, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

// loopStats accumulates a timed loop.
type loopStats struct {
	iters     int
	work      float64
	active    time.Duration
	latencies []float64
	attempted int64
	failed    int64
}

func (s *loopStats) add(it iteration) {
	s.iters++
	s.work += it.work
	s.active += it.active
	s.latencies = append(s.latencies, it.latencies...)
	s.attempted += it.attempted
	s.failed += it.failed
}

// loop runs iterations first, first+1, ... until the measured time reaches
// seconds (and at least z.minIters have run).
func loop(ctx context.Context, w bench, z sizes, first int, seconds float64, tr *tracer) (loopStats, error) {
	var s loopStats
	for i := first; ; i++ {
		it, err := w.iterate(ctx, i, tr)
		if err != nil {
			return s, fmt.Errorf("iteration %d: %w", i, err)
		}
		s.add(it)
		if z.maxIters > 0 && s.iters >= z.maxIters {
			return s, nil
		}
		if s.iters >= z.minIters && s.active.Seconds() >= seconds {
			return s, nil
		}
	}
}

func timedRun(ctx context.Context, o options, z sizes, w bench, d0 time.Duration, units [2]string, log io.Writer) (result, error) {
	s, err := loop(ctx, w, z, 1, float64(o.seconds), nil)
	if err != nil {
		return result{}, err
	}
	setups := []float64{d0.Seconds()}
	var peaks []float64
	for k := 1; k < setupSamples; k++ {
		d, peak, err := setupInChild(ctx, o, w)
		if err != nil {
			return result{}, fmt.Errorf("set-up probe %d: %w", k, err)
		}
		setups = append(setups, d)
		peaks = append(peaks, peak)
	}
	if err := w.verify(ctx, s.iters); err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	p50 := median(s.latencies)
	tailV, tailPct := tail(s.latencies)
	vals := map[string]float64{
		"setup_s":         median(setups),
		"work_per_s":      s.work / s.active.Seconds(),
		"latency_p50_ms":  p50,
		"latency_tail_ms": tailV,
		"peak_rss_mb":     median(peaks),
	}
	res, err := newResult(endToEnd, vals)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = s.attempted, s.failed
	fmt.Fprintf(log, "timed: %d iterations over %.2f s\n", s.iters, s.active.Seconds())
	fmt.Fprintf(log, "setup_s         = %.4f s (median of %d cold set-ups: %s)\n", vals["setup_s"], len(setups), fmtList(setups, "%.3f"))
	fmt.Fprintf(log, "work_per_s      = %.4f 1/s (%s, over all %d iterations)\n", vals["work_per_s"], units[0], s.iters)
	fmt.Fprintf(log, "latency_p50_ms  = %.4f ms (n=%d; a sample is %s)\n", p50, len(s.latencies), units[1])
	fmt.Fprintf(log, "latency_tail_ms = %.4f ms (p%.1f, n=%d, %d samples beyond)\n", tailV, tailPct, len(s.latencies), tailMinBeyond)
	fmt.Fprintf(log, "peak_rss_mb     = %.2f MB (median peak resident set of %d cold set-up processes: %s)\n", vals["peak_rss_mb"], len(peaks), fmtList(peaks, "%.1f"))
	return res, nil
}

// tracedRun measures the per-layer metrics: an untraced loop, a traced loop
// over fresh iterations (their throughput ratio is the tracing overhead),
// then the layer measurements.
func tracedRun(ctx context.Context, o options, z sizes, w bench, log io.Writer) (result, error) {
	half := float64(o.seconds) / 2
	base, err := loop(ctx, w, z, 1, half, nil)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	first := 1 + base.iters
	stop := sample(busyShare(w.pool()))
	traced, err := loop(ctx, w, z, first, half, tr)
	busy := mean(stop())
	if err != nil {
		return result{}, err
	}
	if err := w.verify(ctx, base.iters+traced.iters); err != nil {
		return result{}, fmt.Errorf("verify: %w", err)
	}
	vals, err := w.layers(ctx, first, tr)
	if err != nil {
		return result{}, fmt.Errorf("layers: %w", err)
	}
	vals["pool.busy_ratio"] = busy
	vals["pool.dispatch_ns"] = dispatchNS(w.pool())
	res, err := newResult(perLayer, vals)
	if err != nil {
		return res, err
	}
	res.Attempted = base.attempted + traced.attempted
	res.Failed = base.failed + traced.failed

	spans := tr.snapshot()
	path := o.spans
	if path == "" {
		path = filepath.Join(filepath.Dir(o.scratch), fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	if err := writeSpans(path, spans); err != nil {
		return res, err
	}
	overhead := ratio(base.work/base.active.Seconds(), traced.work/traced.active.Seconds()) - 1
	fmt.Fprintf(log, "untraced: %d iterations, %.4f work/s; traced: %d iterations, %.4f work/s; tracing overhead %+.2f%%\n",
		base.iters, base.work/base.active.Seconds(), traced.iters, traced.work/traced.active.Seconds(), 100*overhead)
	fmt.Fprintf(log, "%d spans written to %s\n", len(spans), path)
	requests, ladder := splitSpans(spans)
	fmt.Fprintln(log, "traced requests, self time by layer:")
	printLayerTable(log, requests)
	fmt.Fprintln(log, "layer measurements, self time by layer:")
	printLayerTable(log, ladder)
	for _, m := range perLayer {
		fmt.Fprintf(log, "%-32s = %14.4f %-5s -> %s\n", m.Name, vals[m.Name], m.Unit, m.Moves)
	}
	return res, nil
}

// sample calls f every 10 ms until the returned function is called, which
// returns the readings.
func sample(f func() float64) func() []float64 {
	done := make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var xs []float64
		for {
			select {
			case <-done:
				out <- append(xs, f())
				return
			case <-t.C:
				xs = append(xs, f())
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// busyShare is the share of the pool's worker slots in use.
func busyShare(p *pool.Pool) func() float64 {
	return func() float64 { return float64(p.InFlight()) / float64(p.Size()) }
}

// dispatchNS is the cost of one pool.Run of an empty function on an idle
// pool: the slot acquire and release every unit of pooled work pays.
func dispatchNS(p *pool.Pool) float64 {
	const n = 200000
	noop := func() {}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p.Run(noop)
		}
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / n
}

// settle writes back the page cache's dirty data (earlier runs', and this
// run's untimed preparation) before a timed phase starts, so the kernel's
// delayed writeback of it does not land on the phase's clock. Serving is
// bound by file writes, which makes this the difference between a
// repeatable number and one that tracks the previous run.
func settle() { syscall.Sync() }

// setupInChild measures one cold set-up in a fresh process, so the
// process-wide caches (assembled programs, trace templates, captured
// streams, the bootstrap memo) start empty as they do for a user. It
// returns the set-up's time and the process's peak resident set in MB:
// the memory one request needs in a process of its own, as a
// `secbench`, `perfbench` or freshly started `tlbserved` user sees it.
func setupInChild(ctx context.Context, o options, w bench) (secs, peakMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	args := []string{"-setup-probe", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-scratch", filepath.Join(o.scratch, "probe")}
	if s, ok := w.(*serveBench); ok {
		args = append(args, "-history", s.history)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, 0, err
	}
	var v struct {
		SetupS    float64 `json:"setup_s"`
		PeakRSSMB float64 `json:"peak_rss_mb"`
	}
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &v); err != nil {
		return 0, 0, fmt.Errorf("set-up probe output: %w", err)
	}
	return v.SetupS, v.PeakRSSMB, nil
}

// peakRSSMB is this process's peak resident set (VmHWM) in MB. The child's
// own reading is the one to use: the kernel's rusage peak for a child that
// os/exec starts carries over its parent's peak from before the exec.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func runSetupProbe(ctx context.Context, o options) error {
	defer os.RemoveAll(o.scratch)
	w, err := newWorkload(ctx, o, defaultSizes, io.Discard)
	if err != nil {
		return err
	}
	d, err := w.setup(ctx)
	if err != nil {
		return err
	}
	if n := w.checks().count(); n > 0 {
		return fmt.Errorf("set-up failed %d correctness checks: %v", n, w.checks().list())
	}
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Printf("{\"setup_s\": %v, \"peak_rss_mb\": %v}\n", d.Seconds(), peak)
	return nil
}

// runAll runs every workload, each in its own child process so each starts
// with cold process-wide caches, and returns the exit status.
func runAll(ctx context.Context, o options) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlbbench:", err)
		return 1
	}
	status := 0
	summary := map[string]result{}
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"-scratch", o.scratch}
		if o.out != "" {
			args = append(args, "-out", o.out)
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		var stdout bytes.Buffer
		cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		var r result
		if err := json.Unmarshal([]byte(lastLine(stdout.String())), &r); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "tlbbench: workload %s failed: %v\n", name, errors.Join(runErr, err))
			status = 1
			continue
		}
		summary[name] = r
		if !r.Correct {
			status = 1
		}
	}
	fmt.Println()
	fmt.Printf("%-14s %-8s %9s %6s\n", "workload", "correct", "attempted", "failed")
	for _, name := range workloadNames {
		if r, ok := summary[name]; ok {
			fmt.Printf("%-14s %-8v %9d %6d\n", name, r.Correct, r.Attempted, r.Failed)
		} else {
			fmt.Printf("%-14s %-8s\n", name, "no result")
		}
	}
	return status
}

// record is one run as compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	NumCPU   int    `json:"nproc"`
	Go       string `json:"go"`
	result
}

func writeRecord(o options, res result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	kind := "e2e"
	if o.trace {
		kind = "trace"
	}
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), Go: runtime.Version(), result: res}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-%s-seed%d.json", o.workload, kind, o.seed)
	return os.WriteFile(filepath.Join(o.out, name), append(b, '\n'), 0o644)
}

func lastLine(s string) string {
	sc := bufio.NewScanner(strings.NewReader(s))
	sc.Buffer(nil, 1<<20)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
