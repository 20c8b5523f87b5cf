package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securetlb/internal/job"
	"securetlb/internal/model"
	"securetlb/internal/perf"
	"securetlb/internal/pool"
	"securetlb/internal/secbench"
	"securetlb/internal/serve"
)

// serveBench is the serve workload: an in-process daemon wired exactly as
// cmd/tlbserved wires it (job.OpenLimits with the default flag limits,
// single-node cluster mode, serve.New, a real loopback listener) over a job
// history seeded untimed through the public Queue API. Clients submit in a
// closed loop and follow each job's stream to its result. Iteration r is a
// round of jobs on a fresh daemon over a fresh copy of the history, so the
// record count persistence pays for stays in a fixed range however many
// rounds a run fits.
type serveBench struct {
	env
	history string // the seeded job history every daemon opens over
	next    int    // the first job of the next round
	obs     *observer
	traced  []jobOutcome // outcomes of the traced rounds
	checked int          // results compared with a direct render
}

// benchNode is the daemon's cluster identity.
const benchNode = "bench"

// reapPoll is the daemon's lease-reaper period: the default, half the lease
// TTL. Every scan reads the data directory once per job record while
// holding the queue lock, so a round's cost depends on how many scans fall
// inside it.
var reapPoll = daemonLimits().Cluster.LeaseTTL / 2

// roundReaps is how many reaper scans fall inside every serve round. Jobs
// are submitted until a tenth of a period after the last of them starts,
// so that scan always stalls the round's traffic, and the jobs still in
// flight then (each under a second) end before the next scan, a period
// later.
const roundReaps = 3

// jobHeader carries a submission's trace ID to the server-side spans.
const jobHeader = "X-Bench-Job"

func newServe(ctx context.Context, e env, history string) (*serveBench, error) {
	s := &serveBench{env: e, history: history}
	if history == "" {
		s.history = filepath.Join(e.scratch, "history")
		if err := seedHistory(ctx, s.history, e.z.serveHistory); err != nil {
			return nil, fmt.Errorf("seeding the job history: %w", err)
		}
	}
	return s, nil
}

// spec is job k of the serve mix: three secbench campaigns (the paper's
// three designs) to one Figure 7 SA sweep, with every fourth submission
// repeating the one three earlier, which lands on the cache or coalesces.
// Trial counts step through a permutation of 2000..3999, so a run's mean
// job size does not drift with how many rounds it fits, and no campaign
// repeats one an earlier round ran (the process-wide bootstrap memo would
// answer it) within the first 2000 jobs, more than a run reaches. A job
// writes its checkpoint 144 times whatever its trial count, and the speed
// of those writes swings several-fold from minute to minute on a shared
// disk; campaigns of a few hundred trials spend most of their time on
// them, and their throughput spread past any usable bound.
func (s *serveBench) spec(k int) job.Spec {
	if k%4 == 3 {
		k -= 3
	}
	if k%4 == 2 {
		return job.Spec{Kind: job.KindPerf, Design: "sa", Decrypts: 2 + (k/4)%8, Seed: s.seed<<16 + uint64(k) + 1}
	}
	return job.Spec{Kind: job.KindSecbench, Design: "all", Trials: 2000 + int((uint64(k)*263+s.seed)%2000)}
}

// daemonLimits are cmd/tlbserved's default flag values, in the single-node
// cluster mode `tlbserved -node-id bench` runs.
func daemonLimits() job.Limits {
	lim := job.Limits{
		MaxPending:   256,
		MaxPerClient: 16,
		RetryBudget:  3,
		RetryBase:    100 * time.Millisecond,
		StallTimeout: 2 * time.Minute,
	}
	lim.Cluster.Node = benchNode
	lim.Cluster.LeaseTTL = 3 * time.Second
	return lim
}

// historySpec is the k-th seeded history job, distinct from every job of
// the mix.
func historySpec(k int) job.Spec {
	return job.Spec{Kind: job.KindPerf, Design: "sa", Decrypts: 1, Seed: 1<<40 + uint64(k)}
}

// seedHistory fills dir with n completed jobs through the public Queue API
// under the daemon's limits; the runner answers at once, since only the
// records and leases on disk matter.
func seedHistory(ctx context.Context, dir string, n int) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	instant := job.RunnerFunc(func(context.Context, job.Spec, func(job.Event)) (json.RawMessage, error) {
		return json.RawMessage(`{"kind":"perf","output":"history"}`), nil
	})
	q, err := job.OpenLimits(dir, instant, daemonLimits())
	if err != nil {
		return err
	}
	q.Start()
	defer q.Close()
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		j, _, _, err := q.Submit(historySpec(k))
		if err != nil {
			return err
		}
		events, stop, err := q.Subscribe(j.ID)
		if err != nil {
			return err
		}
		for range events {
		}
		stop()
		if j, _ := q.Get(j.ID); j.State != job.StateDone {
			return fmt.Errorf("history job %d ended %s", k, j.State)
		}
	}
	return nil
}

// linkDir fills a fresh dst with hard links to the regular files of src.
// The daemon only ever replaces records and leases (write a temporary
// file, rename it over the old one) or creates new ones, so the history
// behind the links is never modified, and a round costs no data writes of
// its own before it starts.
func linkDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// daemon is one in-process tlbserved.
type daemon struct {
	q       *job.Queue
	srv     *http.Server
	served  chan error
	base    string
	records int       // job records on disk when it opened
	started time.Time // when its queue, and so its reaper's clock, started
}

// openDaemon brings up a daemon over dir; obs, when non-nil, instruments
// its seams.
func openDaemon(dir string, p *pool.Pool, obs *observer) (*daemon, error) {
	records := 0
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".job.json") {
				records++
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lim := daemonLimits()
	runner := &serve.CampaignRunner{Dir: dir, Pool: p}
	var jr job.Runner = runner
	if obs != nil {
		jr = obs.runner(runner)
		lim.PersistHook = obs.hook()
	}
	q, err := job.OpenLimits(dir, jr, lim)
	if err != nil {
		ln.Close()
		return nil, err
	}
	started := time.Now()
	q.Start()
	api := serve.New(q, runner)
	api.EnableCluster(serve.Cluster{Node: benchNode})
	var h http.Handler = api.Handler()
	if obs != nil {
		h = obs.handler(h)
		obs.records = append(obs.records, float64(records))
	}
	d := &daemon{q: q, srv: &http.Server{Handler: h}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), records: records, started: started}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// close drains the queue, then the HTTP server, as tlbserved shuts down.
func (d *daemon) close() {
	d.q.Close()
	d.srv.Close()
	<-d.served
}

// jobOutcome is what a client saw of one submission.
type jobOutcome struct {
	k         int
	tag       string
	id        string
	status    int
	cached    bool
	submit    time.Duration // POST /jobs round trip
	latency   time.Duration // POST sent to result event received
	events    int
	state     job.State
	result    json.RawMessage
	resultAt  time.Time
	coalesced bool
}

// client is one closed-loop caller with one connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do submits spec and follows the job's stream to its end.
func (c *client) do(ctx context.Context, spec job.Spec, tag string, tr *tracer, parent int64) (jobOutcome, error) {
	o := jobOutcome{tag: tag}
	body, err := json.Marshal(spec)
	if err != nil {
		return o, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return o, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(jobHeader, tag)
	sp := tr.begin(tag, "serve.submit", parent)
	sent := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		sp.end()
		return o, err
	}
	var sr serve.SubmitResponse
	derr := json.NewDecoder(resp.Body).Decode(&sr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.submit = time.Since(sent)
	sp.end()
	o.status = resp.StatusCode
	if o.status != http.StatusOK && o.status != http.StatusAccepted {
		return o, nil // refused: the caller counts it as failed
	}
	if derr != nil {
		return o, derr
	}
	o.id, o.cached, o.coalesced = sr.ID, sr.Cached, sr.Coalesced

	// Following the stream is waiting on the job, not work in any layer: it
	// gets no span, so the root's self time is the job's queueing and
	// result delivery.
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+sr.ID+"/stream", nil)
	if err != nil {
		return o, err
	}
	resp, err = c.hc.Do(req)
	if err != nil {
		return o, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return o, fmt.Errorf("stream %s: status %d", sr.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev job.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return o, err
		}
		o.events++
		switch ev.Type {
		case "result":
			o.result, o.resultAt = ev.Result, time.Now()
			o.latency = o.resultAt.Sub(sent)
		case "state":
			if ev.State.Terminal() {
				o.state = ev.State
			}
		}
	}
	return o, sc.Err()
}

// clients is the number of closed-loop callers: two, and never more than
// there are CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

// runJobs runs jobs lo, lo+1, ... of spec from clients() closed-loop
// callers, submitting until job hi or until the clock passes until
// (whichever comes first; the zero time never comes), and returns the
// outcomes of jobs lo..lo+len-1 in order and the wall time they took. Job
// k's spans carry the trace ID prefix+k.
func runJobs(ctx context.Context, base string, lo, hi int, until time.Time, spec func(int) job.Spec, prefix string, tr *tracer) ([]jobOutcome, time.Duration, error) {
	var next atomic.Int64
	next.Store(int64(lo))
	n := clients()
	outs := make([][]jobOutcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for until.IsZero() || time.Now().Before(until) {
				k := int(next.Add(1) - 1)
				if k >= hi {
					return
				}
				tag := fmt.Sprintf("%s%d", prefix, k)
				root := tr.begin(tag, "bench.job", 0)
				o, err := cl.do(ctx, spec(k), tag, tr, root.id)
				root.end()
				if err != nil {
					errs[c] = fmt.Errorf("job %d: %w", k, err)
					return
				}
				o.k = k
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	took := time.Since(t0)
	all := slices.Concat(outs...)
	slices.SortFunc(all, func(a, b jobOutcome) int { return a.k - b.k })
	return all, took, errors.Join(errs...)
}

// checkOutcome requires a job to have been accepted and to have ended done
// with a result; it reports whether it did.
func checkOutcome(chk *checks, o jobOutcome) bool {
	switch {
	case o.status != http.StatusOK && o.status != http.StatusAccepted:
		chk.failf("job %d: submission refused with status %d", o.k, o.status)
	case o.state != job.StateDone || o.result == nil:
		chk.failf("job %d (%s): ended %q without a result", o.k, o.id, o.state)
	default:
		return true
	}
	return false
}

func (s *serveBench) setup(ctx context.Context) (time.Duration, error) {
	dir := filepath.Join(s.scratch, "setup")
	defer os.RemoveAll(dir)
	if err := linkDir(s.history, dir); err != nil {
		return 0, err
	}
	t0 := time.Now()
	d, err := openDaemon(dir, s.p, nil)
	if err != nil {
		return 0, err
	}
	cl := newClient(d.base)
	o, err := cl.do(ctx, s.spec(0), "job-0", nil, 0)
	took := time.Since(t0)
	cl.close()
	d.close()
	if err != nil {
		return took, err
	}
	s.next = 1
	if checkOutcome(s.chk, o) {
		return took, s.checkResult(ctx, o)
	}
	return took, nil
}

// checkResult compares a served result with the same spec rendered
// directly in process.
func (s *serveBench) checkResult(ctx context.Context, o jobOutcome) error {
	var got serve.Result
	if err := json.Unmarshal(o.result, &got); err != nil {
		s.chk.failf("job %d: result payload: %v", o.k, err)
		return nil
	}
	want, err := directRender(ctx, s.p, s.spec(o.k))
	if err != nil {
		return err
	}
	if got != want {
		s.chk.failf("job %d (%+v): served result differs from a direct render", o.k, s.spec(o.k))
	}
	s.checked++
	return nil
}

// directRender runs spec in process through the same campaign entry points
// and formatting the daemon's runner uses.
func directRender(ctx context.Context, p *pool.Pool, spec job.Spec) (serve.Result, error) {
	spec = spec.Normalize()
	res := serve.Result{Kind: spec.Kind}
	var out strings.Builder
	switch spec.Kind {
	case job.KindSecbench:
		designs, err := secbench.ParseDesigns(spec.Design)
		if err != nil {
			return res, err
		}
		for _, d := range designs {
			cfg := secbench.DefaultConfig(d)
			cfg.Trials = spec.Trials
			cfg.Invariants = spec.Invariants
			rep, err := runCampaign(ctx, cfg, spec.Extended, p)
			if err != nil {
				return res, err
			}
			res.Quarantined += len(rep.Quarantined)
			out.WriteString(secbench.FormatCampaign(d, spec.Trials, p.Size(), spec.Extended, rep))
		}
	case job.KindPerf:
		designs, err := perf.ParseDesigns(spec.Design)
		if err != nil {
			return res, err
		}
		for _, d := range designs {
			rows, err := perf.Figure7Pool(ctx, d, spec.Secure, spec.Decrypts, spec.Seed, p, nil)
			if err != nil {
				return res, err
			}
			out.WriteString(perf.SweepHeader(d, spec.Secure, spec.Decrypts, p.Size()))
			out.WriteString(perf.FormatRows(rows))
		}
	default:
		return res, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	res.Output = out.String()
	return res, nil
}

// iterate runs round r on a fresh daemon over a fresh copy of the history:
// the next jobs of the mix, submitted until just after the daemon's
// roundReaps-th reaper scan starts. Only the jobs themselves are timed.
func (s *serveBench) iterate(ctx context.Context, r int, tr *tracer) (iteration, error) {
	dir := filepath.Join(s.scratch, fmt.Sprintf("round-%d", r))
	defer os.RemoveAll(dir)
	if err := linkDir(s.history, dir); err != nil {
		return iteration{}, err
	}
	settle()
	if tr != nil && s.obs == nil {
		s.obs = newObserver(tr)
	}
	var obs *observer
	if tr != nil {
		obs = s.obs
	}
	d, err := openDaemon(dir, s.p, obs)
	if err != nil {
		return iteration{}, err
	}
	hi := math.MaxInt
	if s.z.serveRound > 0 {
		hi = s.next + s.z.serveRound
	}
	until := d.started.Add(roundReaps*reapPoll + reapPoll/10)
	outs, active, err := runJobs(ctx, d.base, s.next, hi, until, s.spec, "job-", tr)
	ended := time.Since(d.started)
	d.close()
	if err != nil {
		return iteration{}, err
	}
	fmt.Fprintf(s.log, "round %d: %d jobs, ended %.2f s after the daemon started (reaper scans every %.2f s)\n",
		r, len(outs), ended.Seconds(), reapPoll.Seconds())
	s.next += len(outs)
	it := iteration{active: active, attempted: int64(len(outs))}
	for _, o := range outs {
		if !checkOutcome(s.chk, o) {
			it.failed++
			continue
		}
		it.work++
		// Cache hits and coalesced repeats answer in well under a millisecond
		// or ride on another job; their latencies would put the median in the
		// gap between them and executed jobs, where it jumps.
		if !o.cached && !o.coalesced {
			it.latencies = append(it.latencies, ms(o.latency))
		}
		if o.k < 10 || o.k%10 == 0 {
			if err := s.checkResult(ctx, o); err != nil {
				return it, err
			}
		}
	}
	if tr != nil {
		s.traced = append(s.traced, outs...)
	}
	return it, nil
}

func (s *serveBench) verify(ctx context.Context, n int) error {
	fmt.Fprintf(s.log, "verified: %d results compared with a direct render\n", s.checked)
	return nil
}

func (s *serveBench) layers(ctx context.Context, traced int, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}
	s.obs.fill(s.traced, vals)
	dir := filepath.Join(s.scratch, "idle")
	defer os.RemoveAll(dir)
	if err := linkDir(s.history, dir); err != nil {
		return nil, err
	}
	d, err := openDaemon(dir, s.p, nil)
	if err != nil {
		return nil, err
	}
	vals["job.lock_stall_ms"] = lockStallMS(d.q)
	d.close()
	// The campaign and perf layers are measured on the first traced round's
	// first campaign and first sweep, widened to every design.
	var camp, sweep *job.Spec
	for k := s.traced[0].k; camp == nil || sweep == nil; k++ {
		sp := s.spec(k).Normalize()
		if sp.Kind == job.KindSecbench && camp == nil {
			camp = &sp
		} else if sp.Kind == job.KindPerf && sweep == nil {
			sweep = &sp
		}
	}
	var cfgs []secbench.Config
	for _, d := range secbench.AllDesigns() {
		cfg := secbench.DefaultConfig(d)
		cfg.Trials = camp.Trials
		cfgs = append(cfgs, cfg)
	}
	rb, err := campaignLayers(ctx, &s.env, cfgs, model.Enumerate(), false, nil, "", vals, tr)
	if err != nil {
		return nil, err
	}
	if _, err := perfLadder(ctx, sweep.Decrypts, sweep.Seed, perfCodes, vals, false, tr); err != nil {
		return nil, err
	}
	// The checkpoint grows to one campaign job's units: the paper's three
	// designs.
	all := rb.checkpointUnits()
	var units []ckUnit
	for k, u := range rb.units {
		if d := u.cfg.Design; d == secbench.DesignSA || d == secbench.DesignSP || d == secbench.DesignRF {
			units = append(units, all[k])
		}
	}
	if vals["checkpoint.record_flush_us"], err = checkpointLadder(s.scratch, units); err != nil {
		return nil, err
	}
	return vals, nil
}

// serveProbe measures the job and serve layers for a workload that does
// not serve: a small daemon over a small history runs jobs of the
// workload's own kind, the fourth repeating the first.
func serveProbe(ctx context.Context, e env, spec func(int) job.Spec, vals map[string]float64, tr *tracer) error {
	hist := filepath.Join(e.scratch, "probe-history")
	dir := filepath.Join(e.scratch, "probe-daemon")
	defer os.RemoveAll(hist)
	defer os.RemoveAll(dir)
	if err := seedHistory(ctx, hist, probeHistory); err != nil {
		return err
	}
	if err := linkDir(hist, dir); err != nil {
		return err
	}
	obs := newObserver(tr)
	d, err := openDaemon(dir, e.p, obs)
	if err != nil {
		return err
	}
	mix := func(k int) job.Spec {
		if k%4 == 3 {
			k -= 3
		}
		return spec(k)
	}
	outs, _, err := runJobs(ctx, d.base, 0, probeJobs, time.Time{}, mix, "probe-job-", tr)
	if err == nil {
		vals["job.lock_stall_ms"] = lockStallMS(d.q)
	}
	d.close()
	if err != nil {
		return err
	}
	for _, o := range outs {
		checkOutcome(e.chk, o)
	}
	obs.fill(outs, vals)
	return nil
}

// lockStallMS holds a daemon idle for longer than one reaper period while
// timing, every 5 ms, a call that takes the queue lock. The longest wait is
// the longest the lock was held: in single-node cluster mode, the reaper's
// scan of the data directory, which grows with the job history.
func lockStallMS(q *job.Queue) float64 {
	var worst time.Duration
	for end := time.Now().Add(reapPoll * 4 / 3); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		t0 := time.Now()
		q.Ready()
		worst = max(worst, time.Since(t0))
	}
	return ms(worst)
}

// observer instruments a daemon's seams from outside: a job.Runner wrapper,
// job.PersistHook timing and an HTTP handler wrapper. Server-side spans are
// recorded under the job ID and re-attached to their submission's trace
// once the client has learnt the ID.
type observer struct {
	tr        *tracer
	mu        sync.Mutex
	fenceAt   map[string]time.Time // job ID -> fence check started
	writeAt   map[string]time.Time // job ID -> record write started
	fenceUS   []float64
	writeUS   []float64
	writes    int
	runs      map[string][2]time.Time // job ID -> first execution
	runMS     []float64
	handlers  map[string][2]time.Time // submission trace -> POST /jobs handler
	handlerUS []float64
	records   []float64 // records on disk as each daemon opened
}

func newObserver(tr *tracer) *observer {
	return &observer{tr: tr, fenceAt: map[string]time.Time{}, writeAt: map[string]time.Time{},
		runs: map[string][2]time.Time{}, handlers: map[string][2]time.Time{}}
}

func recordID(path string) string { return strings.TrimSuffix(filepath.Base(path), ".job.json") }

// hook times each durable record write: the fence check (from the "fence"
// lease step to the write) and the write itself (to the rename).
func (o *observer) hook() *job.PersistHook {
	return &job.PersistHook{
		OnLease: func(op, id string, _ uint64) error {
			if op == "fence" {
				o.mu.Lock()
				o.fenceAt[id] = time.Now()
				o.mu.Unlock()
			}
			return nil
		},
		OnWrite: func(path string, data []byte) ([]byte, error) {
			now, id := time.Now(), recordID(path)
			o.mu.Lock()
			defer o.mu.Unlock()
			if t, ok := o.fenceAt[id]; ok {
				delete(o.fenceAt, id)
				o.fenceUS = append(o.fenceUS, us(now.Sub(t)))
				o.tr.record("id:"+id, "job.fence", t, now)
			}
			o.writeAt[id] = now
			o.writes++
			return data, nil
		},
		OnRename: func(_, final string) error {
			now, id := time.Now(), recordID(final)
			o.mu.Lock()
			defer o.mu.Unlock()
			if t, ok := o.writeAt[id]; ok {
				delete(o.writeAt, id)
				o.writeUS = append(o.writeUS, us(now.Sub(t)))
				o.tr.record("id:"+id, "job.persist_write", t, now)
			}
			return nil
		},
	}
}

// runner times every execution of the daemon's campaign runner.
func (o *observer) runner(inner job.Runner) job.Runner {
	return job.RunnerFunc(func(ctx context.Context, spec job.Spec, publish func(job.Event)) (json.RawMessage, error) {
		id, _ := spec.ID()
		t0 := time.Now()
		raw, err := inner.Run(ctx, spec, publish)
		t1 := time.Now()
		o.mu.Lock()
		if _, seen := o.runs[id]; !seen {
			o.runs[id] = [2]time.Time{t0, t1}
		}
		o.runMS = append(o.runMS, ms(t1.Sub(t0)))
		o.mu.Unlock()
		o.tr.record("id:"+id, "job.run", t0, t1)
		return raw, err
	})
}

// handler times POST /jobs on the server side.
func (o *observer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		tag := r.Header.Get(jobHeader)
		o.mu.Lock()
		o.handlers[tag] = [2]time.Time{t0, t1}
		o.handlerUS = append(o.handlerUS, us(t1.Sub(t0)))
		o.mu.Unlock()
		o.tr.record(tag, "serve.handler", t0, t1)
	})
}

// fill derives the job and serve metrics from the observed seams and the
// clients' outcomes, and re-attaches server-side spans to their traces.
func (o *observer) fill(outs []jobOutcome, vals map[string]float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	first := map[string]jobOutcome{} // job ID -> the submission that started it
	var waits, lags, rtts, hops, events []float64
	cached := 0
	rename := map[string]string{}
	for _, out := range outs {
		rtts = append(rtts, ms(out.submit))
		events = append(events, float64(out.events))
		if h, ok := o.handlers[out.tag]; ok {
			hops = append(hops, us(out.submit)-us(h[1].Sub(h[0])))
		}
		if out.cached {
			cached++
		}
		if _, seen := first[out.id]; seen || out.cached || out.coalesced {
			continue
		}
		first[out.id] = out
		rename["id:"+out.id] = out.tag
		run, ran := o.runs[out.id]
		h, handled := o.handlers[out.tag]
		if ran && handled {
			waits = append(waits, max(0, ms(run[0].Sub(h[0]))))
		}
		if ran && !out.resultAt.IsZero() {
			lags = append(lags, max(0, ms(out.resultAt.Sub(run[1]))))
		}
	}
	vals["job.fence_us.p50"] = percentile(o.fenceUS, 50)
	vals["job.fence_us.p95"] = percentile(o.fenceUS, 95)
	vals["job.persist_write_us.p50"] = percentile(o.writeUS, 50)
	vals["job.persist_write_us.p95"] = percentile(o.writeUS, 95)
	vals["job.persists_per_job"] = ratio(float64(o.writes), float64(len(o.runs)))
	vals["job.queue_wait_ms.p50"] = percentile(waits, 50)
	vals["job.queue_wait_ms.p95"] = percentile(waits, 95)
	vals["job.run_ms"] = median(o.runMS)
	vals["job.result_lag_ms"] = median(lags)
	vals["job.cache_hit_ratio"] = ratio(float64(cached), float64(len(outs)))
	vals["job.history_records"] = mean(o.records)
	vals["serve.submit_handler_us.p50"] = percentile(o.handlerUS, 50)
	vals["serve.submit_handler_us.p95"] = percentile(o.handlerUS, 95)
	vals["serve.submit_p95_ms"] = percentile(rtts, 95)
	vals["serve.http_hop_us"] = median(hops)
	vals["serve.stream_events_per_job"] = mean(events)
	o.tr.adopt(rename)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
