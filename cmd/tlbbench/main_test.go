package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and of [1, 2, 3, 4].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7, 7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{300, 290, 100 * 290.0 / 300, "p96.7: exactly ten of 300 above"},
		{11, 1, 100 * 1.0 / 11, "eleven samples: the minimum has ten above"},
		{20, 10, 50, "twenty samples: the median"},
		{10, 10, 100, "too few samples for any such percentile: the maximum"},
	} {
		v, pct := tail(seq(c.n))
		if v != c.v || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("%s: tail = %v (p%v), want %v (p%v)", c.comment, v, pct, c.v, c.pct)
		}
		above := 0
		for _, x := range seq(c.n) {
			if x > v {
				above++
			}
		}
		if c.n > tailMinBeyond && above != tailMinBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, above, tailMinBeyond)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloadNames))
	}
	for k, w := range b.Workloads {
		if w.Name != workloadNames[k] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", k, w)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || (better != "lower" && better != "higher") || seen[n] {
			t.Errorf("bad metric %q %q %q", n, u, better)
		}
		seen[n] = true
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for k, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		want := endToEnd[k]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end[%d] = %+v, benchmark has %+v", k, m, want)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better: %+v", m)
			}
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for k, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		want := perLayer[k]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || want.Moves == "" {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", k, m, want)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "cmd/tlbbench" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestResultLineShape(t *testing.T) {
	vals := map[string]float64{}
	for k, m := range endToEnd {
		vals[m.Name] = 1.5 + float64(k)
	}
	r, err := newResult(endToEnd, vals)
	if err != nil {
		t.Fatal(err)
	}
	r.Correct, r.Attempted, r.Failed = true, 10, 0
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.line()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("result line keys: %v", sortedKeys(got))
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		v := ms[m.Name]
		if len(v) != 2 || v["unit"] != m.Unit || v["value"] != vals[m.Name] {
			t.Errorf("metric %s = %v", m.Name, v)
		}
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("%d metrics in the line, want %d", len(ms), len(endToEnd))
	}

	delete(vals, "setup_s")
	if _, err := newResult(endToEnd, vals); err == nil {
		t.Error("a missing metric was accepted")
	}
	vals["setup_s"] = math.NaN()
	if _, err := newResult(endToEnd, vals); err == nil {
		t.Error("a NaN metric was accepted")
	}
	vals["setup_s"], vals["undeclared"] = 1, 1
	if _, err := newResult(endToEnd, vals); err == nil {
		t.Error("an undeclared metric was accepted")
	}
}

func TestSelfTimeWithNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: "a", Name: "bench.iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: "a", Name: "secbench.campaign", Start: 10, End: 40},
		{ID: 3, Parent: 1, Trace: "a", Name: "secbench.campaign", Start: 30, End: 60}, // overlaps 2
		{ID: 4, Parent: 2, Trace: "a", Name: "trace.replay", Start: 15, End: 20},
		{ID: 5, Parent: 1, Trace: "a", Name: "capacity.bootstrap", Start: 90, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	layers := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		layers[r.Layer] = r
	}
	if layers["bench"].Self != 40 || layers["secbench"].Self != 55 || layers["secbench"].Calls != 2 {
		t.Errorf("layer table: %+v", layers)
	}
}

func TestAdoptAttachesServerSpans(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Trace: "job-7", Name: "bench.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: "job-7", Name: "serve.submit", Start: 0, End: 10},
		{ID: 3, Trace: "job-7", Name: "serve.handler", Start: 2, End: 8},
		{ID: 4, Trace: "id:abc", Name: "job.fence", Start: 3, End: 4},
		{ID: 5, Trace: "id:abc", Name: "job.run", Start: 9, End: 90},
		{ID: 6, Trace: "id:zzz", Name: "job.run", Start: 9, End: 90}, // another job: left alone
	}
	tr.adopt(map[string]string{"id:abc": "job-7"})
	want := map[int64]int64{3: 2, 4: 3, 5: 1, 6: 0}
	for _, s := range tr.spans {
		if w, ok := want[s.ID]; ok && s.Parent != w {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, w)
		}
	}
	if tr.spans[3].Trace != "job-7" {
		t.Errorf("trace not renamed: %q", tr.spans[3].Trace)
	}
}

// runs builds n paired run records of one workload whose metrics come from
// f(side, i).
func runs(workload string, n int, side int, f func(side, i int, m metric) float64) []record {
	var out []record
	for i := 0; i < n; i++ {
		r := record{Workload: workload, Seed: uint64(i + 1), result: result{Correct: true, Attempted: 100, Metrics: map[string]value{}}}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = value{Value: f(side, i, m), Unit: m.Unit}
		}
		out = append(out, r)
	}
	return out
}

func TestCompareRule(t *testing.T) {
	jitter := func(i int) float64 { return 1 + 0.002*float64(i%5) }
	steady := func(side, i int, m metric) float64 { return 100 * jitter(i+side) }
	verdicts := func(rows []workloadComparison) map[string]string {
		v := map[string]string{}
		for _, m := range rows[0].Metrics {
			v[m.Metric] = m.Verdict
		}
		return v
	}

	rows, bad := compareRuns(runs("table4", 10, 0, steady), runs("table4", 10, 1, steady))
	if bad {
		t.Errorf("same-commit runs flagged: %+v", rows)
	}
	for m, v := range verdicts(rows) {
		if v != verdictSame {
			t.Errorf("same-commit %s: %s", m, v)
		}
	}

	// A forced regression: B's throughput 30% lower on every run.
	slower := func(side, i int, m metric) float64 {
		v := steady(side, i, m)
		if side == 1 && m.Name == "work_per_s" {
			v *= 0.7
		}
		return v
	}
	rows, bad = compareRuns(runs("table4", 10, 0, steady), runs("table4", 10, 1, slower))
	if !bad || verdicts(rows)["work_per_s"] != verdictWorse || verdicts(rows)["latency_p50_ms"] != verdictSame {
		t.Errorf("regression not flagged: bad=%v %v", bad, verdicts(rows))
	}

	// A gain: B's latency 20% lower on every pair.
	faster := func(side, i int, m metric) float64 {
		v := steady(side, i, m)
		if side == 1 && m.Name == "latency_p50_ms" {
			v *= 0.8
		}
		return v
	}
	rows, bad = compareRuns(runs("table4", 10, 0, steady), runs("table4", 10, 1, faster))
	if bad || verdicts(rows)["latency_p50_ms"] != verdictBetter {
		t.Errorf("gain not recognised: bad=%v %v", bad, verdicts(rows))
	}

	// Unresolved: A's own spread exceeds the bound and B overlaps it.
	noisy := func(side, i int, m metric) float64 {
		if m.Name == "peak_rss_mb" {
			return 100 * (1 + 0.3*float64((i+side)%4))
		}
		return steady(side, i, m)
	}
	rows, bad = compareRuns(runs("table4", 10, 0, noisy), runs("table4", 10, 1, noisy))
	if bad || verdicts(rows)["peak_rss_mb"] != verdictUnresolved {
		t.Errorf("noisy metric not unresolved: bad=%v %v", bad, verdicts(rows))
	}

	// A fail_ratio rise is a regression whatever the timings say.
	b := runs("table4", 10, 1, steady)
	b[3].Failed = 1
	if _, bad := compareRuns(runs("table4", 10, 0, steady), b); !bad {
		t.Error("fail_ratio rise not flagged")
	}

	// Fewer than ten pairs cannot decide.
	if rows, bad := compareRuns(runs("table4", 9, 0, steady), runs("table4", 9, 1, steady)); !bad || rows[0].Problem == "" {
		t.Errorf("nine pairs accepted: %+v", rows)
	}
}

// smokeSizes run every workload for one iteration (serve: four jobs over a
// history of eight).
var smokeSizes = sizes{minIters: 1, maxIters: 1, serveHistory: 8, serveRound: 4}

// TestMain lets the test binary stand in for the benchmark binary in the
// child processes a run starts to measure cold set-ups.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-setup-probe") {
		main()
		return
	}
	os.Exit(m.Run())
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

func TestSmoke(t *testing.T) {
	if raceEnabled {
		// One untraced table4 iteration takes minutes instead of two seconds:
		// the whole smoke test would outrun `go test -race`'s timeout.
		t.Skip("the workloads are too slow under the race detector; go test without -race runs them")
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				if traced && testing.Short() && name == "table7-assert" {
					t.Skip("the traced Appendix B rebuild takes several seconds")
				}
				dir := t.TempDir()
				o := options{workload: name, seed: defaultSeed, seconds: 0, trace: traced, scratch: dir,
					spans: dir + "/spans.jsonl"}
				var log bytes.Buffer
				res, err := runWorkload(context.Background(), o, smokeSizes, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
					t.Fatalf("correct=%v attempted=%d failed=%d metrics=%d\n%s", res.Correct, res.Attempted, res.Failed, len(res.Metrics), log.String())
				}
			})
		}
	}
}
