package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metric describes one number the benchmark reports. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound (end-to-end only) is the share of the parent's median by which
	// the metric may worsen before a change counts as a regression.
	Bound float64
	// Moves (per-layer only) names the end-to-end metric, and the workload,
	// a change to this layer should move.
	Moves string
}

// endToEnd are the metrics a user of the simulator sees. Every workload
// reports all of them; what one unit of work or one request is depends on
// the workload (see workloadUnits). A bound must hold the spread of ten
// runs of one commit, or two runs of the same code read as a regression.
// Memory holds 0.10; the times need 0.25 on the shared 2-vCPU host the
// baseline was taken on, whose speed swings by up to a fifth in phases
// that outlast any run the benchmark's time budget allows (README.md has
// the measurements).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// designCodes are the six TLB designs in secbench selector order.
var designCodes = []string{"sa", "sp", "rf", "fa", "ri", "fs"}

// perfCodes are the Figure 7 designs.
var perfCodes = []string{"sa", "sp", "rf"}

// perLayer lists every per-layer metric a traced run reports, with the
// end-to-end metric each should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var ms []metric
	add := func(name, unit, better, moves string) {
		ms = append(ms, metric{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, d := range designCodes {
		add("tlb.translate_ns."+d, "ns", "lower", "work_per_s@table4 (ri minus sa is the keyed-index cost), work_per_s@fig7 (sa/sp/rf)")
	}
	for _, d := range designCodes {
		add("tlb.lookups."+d, "count", "lower", "denominator of tlb.translate_ns; identical across commits for simulator-only changes")
	}
	for _, d := range designCodes {
		add("tlb.miss_ratio."+d, "ratio", "lower", "simulated statistic; identical across commits for simulator-only changes")
	}
	for _, d := range designCodes {
		add("assert.translate_ns."+d, "ns", "lower", "work_per_s@table7-assert")
	}
	add("trace.memo_walk_ns", "ns", "lower", "work_per_s@table4")
	add("ptw.walk_ns", "ns", "lower", "work_per_s@table4")
	add("mem.load_ns", "ns", "lower", "work_per_s@table4")
	add("trace.replay_us_per_trial", "us", "lower", "work_per_s@table4")
	add("trace.ops_per_trial", "count", "lower", "work_per_s@table4")
	add("trace.capture_ms", "ms", "lower", "setup_s@table4, setup_s@table7-assert")
	add("trace.replay_ratio", "ratio", "higher", "work_per_s@table7-assert")
	add("cpu.run_ns_per_instr", "ns", "lower", "work_per_s wherever trace.replay_ratio < 1 (the fallback path)")
	for _, d := range designCodes {
		add("secbench.design_ms."+d, "ms", "lower", "latency_p50_ms and latency_tail_ms@table4, @table7-assert")
	}
	add("secbench.program_build_ms", "ms", "lower", "setup_s@table4, setup_s@table7-assert")
	add("capacity.bootstrap_ms", "ms", "lower", "work_per_s@table4")
	add("pool.busy_ratio", "ratio", "higher", "work_per_s (every workload)")
	add("pool.dispatch_ns", "ns", "lower", "work_per_s (every workload)")
	for _, d := range perfCodes {
		add("perf.cell_ms."+d, "ms", "lower", "work_per_s@fig7")
	}
	add("perf.stream_capture_ms", "ms", "lower", "work_per_s@fig7, setup_s@fig7")
	add("perf.run_ns_per_instr", "ns", "lower", "work_per_s@fig7 (the fallback path)")
	add("checkpoint.record_flush_us", "us", "lower", "latency_p50_ms@serve")
	add("job.fence_us.p50", "us", "lower", "latency_tail_ms@serve, serve.submit_p95_ms")
	add("job.fence_us.p95", "us", "lower", "latency_tail_ms@serve, serve.submit_p95_ms")
	add("job.persist_write_us.p50", "us", "lower", "latency_p50_ms@serve")
	add("job.persist_write_us.p95", "us", "lower", "latency_p50_ms@serve")
	add("job.persists_per_job", "count", "lower", "latency_p50_ms@serve")
	add("job.queue_wait_ms.p50", "ms", "lower", "latency_tail_ms@serve")
	add("job.queue_wait_ms.p95", "ms", "lower", "latency_tail_ms@serve")
	add("job.run_ms", "ms", "lower", "latency_p50_ms@serve")
	add("job.result_lag_ms", "ms", "lower", "latency_p50_ms@serve")
	add("job.cache_hit_ratio", "ratio", "higher", "work_per_s@serve")
	add("job.history_records", "count", "lower", "the record count persist costs are read against")
	add("job.lock_stall_ms", "ms", "lower", "latency_tail_ms@serve, work_per_s@serve (the reaper's directory scan under the queue lock)")
	add("serve.submit_handler_us.p50", "us", "lower", "serve.submit_p95_ms, latency_p50_ms@serve")
	add("serve.submit_handler_us.p95", "us", "lower", "serve.submit_p95_ms, latency_tail_ms@serve")
	add("serve.submit_p95_ms", "ms", "lower", "latency_tail_ms@serve (queue-lock stalls show here first)")
	add("serve.http_hop_us", "us", "lower", "latency_p50_ms@serve")
	add("serve.stream_events_per_job", "count", "lower", "latency_p50_ms@serve")
	return ms
}

// value is one reported metric, as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the benchmark's whole verdict.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult attaches units to vals, which must hold exactly the metrics of
// defs, each finite.
func newResult(defs []metric, vals map[string]float64) (result, error) {
	r := result{Metrics: make(map[string]value, len(defs))}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if findMetric(defs, name) == nil {
				return r, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return r, nil
}

func findMetric(defs []metric, name string) *metric {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // newResult admits only finite values
	}
	return string(b)
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by the
// same rule as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads read the same here and in the tools that check them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailMinBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailMinBeyond samples beyond it, and which percentile that is. With too
// few samples for any such percentile it returns the maximum and 100.
func tail(xs []float64) (v, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n <= tailMinBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailMinBeyond], 100 * float64(n-tailMinBeyond) / float64(n)
}

// percentile is the nearest-rank p-th percentile of xs, for the per-layer
// p50/p95 readings.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
