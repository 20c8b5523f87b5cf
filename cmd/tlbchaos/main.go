// Command tlbchaos is the service-layer chaos harness: it drives a fleet
// of concurrent clients against a real tlbserved daemon while killing the
// daemon with SIGKILL — no drain, no warning — on a seeded schedule, then
// proves the hardening did its job:
//
//   - zero lost jobs: every submission eventually reaches a done result,
//     across every crash, restart and quarantine;
//   - bounded duplication: no job record exceeds one execution per crash
//     resume plus its persisted retry/stall budget;
//   - bit-identical results: every served payload equals an in-process
//     run of the same spec through the same CampaignRunner at the same
//     worker count — a crashed-and-resumed campaign is indistinguishable
//     from an undisturbed one.
//
// With -nodes N (N >= 2) the harness becomes a cluster drill: N daemons
// share one data directory as a lease-fenced cluster, the seeded SIGKILLs
// hit individual nodes which stay down past the lease TTL — so surviving
// peers genuinely reap and adopt the dead node's jobs — and the audit
// extends to the cluster invariants: the executions bound gains the
// hand-off term (<= 1 + kills + retries + stalls + handoffs), and every
// job's lease-epoch history must be gapless from 1 with the terminal
// record owned at the newest epoch — the on-disk proof that every
// execution ran under exactly one exclusively-claimed lease and no stale
// writer got the last word.
//
// Everything is deterministic from -seed: the spec mix, the kill schedule,
// the victim of each kill (drawn seeded from the nodes currently holding
// job leases, so a kill interrupts real work instead of an idle peer), and
// (with -inject) the service-layer fault site armed inside each daemon
// generation. -min-handoffs fails a cluster run that produced fewer
// hand-offs than expected — the audit that the drill actually drilled.
// Usage:
//
//	tlbchaos -clients 32 -kills 5 -seed 1            # full acceptance run
//	tlbchaos -clients 8 -kills 2 -trials 4000 -race  # make chaos-smoke
//	tlbchaos -nodes 3 -clients 8 -kills 2 -race      # cluster node-kill drill
//
// Exit status 0 means every assertion held; 1 means jobs were lost,
// duplicated beyond budget, or answered with non-identical bytes. -data
// names a directory to run in and keep (CI uploads it when the audit
// fails); by default a temp directory is used and removed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securetlb/internal/job"
	"securetlb/internal/pool"
	"securetlb/internal/serve"
	"securetlb/internal/splitmix"
)

func main() {
	cfg := chaosConfig{}
	flag.IntVar(&cfg.clients, "clients", 32, "concurrent clients")
	flag.IntVar(&cfg.kills, "kills", 5, "seeded SIGKILLs delivered mid-campaign")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the spec mix and kill schedule")
	flag.IntVar(&cfg.specs, "specs", 8, "distinct campaign specs across the fleet (clients coalesce onto them)")
	flag.IntVar(&cfg.trials, "trials", 8000, "base secbench trials per spec (sets how long a campaign runs)")
	flag.IntVar(&cfg.parallel, "parallel", 2, "daemon worker pool size (the reference runs at the same size)")
	flag.IntVar(&cfg.retries, "retries", 3, "daemon retry budget per job")
	flag.StringVar(&cfg.daemon, "daemon", "", "tlbserved binary (default: build ./cmd/tlbserved)")
	flag.BoolVar(&cfg.race, "race", false, "build the daemon with -race")
	flag.StringVar(&cfg.inject, "inject", "", "arm a service fault site in every daemon generation")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "overall harness deadline")
	flag.IntVar(&cfg.nodes, "nodes", 1, "daemon nodes over one data directory (>= 2 runs a lease-fenced cluster)")
	flag.DurationVar(&cfg.leaseTTL, "lease-ttl", time.Second, "cluster lease TTL (kills keep a node down past it to force hand-offs)")
	flag.IntVar(&cfg.minHandoffs, "min-handoffs", 0, "fail a cluster run with fewer hand-offs than this (proves kills landed on owned jobs)")
	flag.StringVar(&cfg.data, "data", "", "data directory to use and keep (default: a removed temp dir); kept for CI artifacts")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tlbchaos [flags]")
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tlbchaos: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("tlbchaos: PASS")
}

type chaosConfig struct {
	clients     int
	kills       int
	seed        uint64
	specs       int
	trials      int
	parallel    int
	retries     int
	daemon      string
	race        bool
	inject      string
	timeout     time.Duration
	nodes       int
	leaseTTL    time.Duration
	minHandoffs int
	data        string
}

// pickSpecs derives the deterministic campaign mix: mostly secbench cells
// across the three designs with varied trial counts (long enough for kills
// to land mid-run), plus a perf sweep cell for every fourth spec.
func pickSpecs(seed uint64, n, baseTrials int) []job.Spec {
	state := seed ^ 0xc4a5
	specs := make([]job.Spec, 0, n)
	designs := []string{"sa", "sp", "rf"}
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			specs = append(specs, job.Spec{
				Kind:     job.KindPerf,
				Design:   designs[i%len(designs)],
				Decrypts: 2,
				Seed:     1 + splitmix.Next(&state)%3,
			})
			continue
		}
		specs = append(specs, job.Spec{
			Kind:   job.KindSecbench,
			Design: designs[splitmix.Next(&state)%uint64(len(designs))],
			Trials: baseTrials + int(splitmix.Next(&state)%4)*500,
		})
	}
	return specs
}

// killDelays derives the seeded schedule: how long each daemon generation
// lives before its SIGKILL.
func killDelays(seed uint64, kills int) []time.Duration {
	state := seed ^ 0xdead
	out := make([]time.Duration, kills)
	for i := range out {
		out[i] = time.Duration(300+splitmix.Next(&state)%700) * time.Millisecond
	}
	return out
}

func run(cfg chaosConfig) error {
	if cfg.nodes < 1 {
		cfg.nodes = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	bin := cfg.daemon
	if bin == "" {
		var err error
		if bin, err = buildDaemon(cfg.race); err != nil {
			return err
		}
	}
	dataDir := cfg.data
	if dataDir == "" {
		var err error
		dataDir, err = os.MkdirTemp("", "tlbchaos-data-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dataDir)
	} else if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	addrs, err := freeAddrs(cfg.nodes)
	if err != nil {
		return err
	}

	specs := pickSpecs(cfg.seed, cfg.specs, cfg.trials)
	delays := killDelays(cfg.seed, cfg.kills)
	common := []string{
		"-parallel", fmt.Sprint(cfg.parallel),
		"-retries", fmt.Sprint(cfg.retries),
		"-max-pending", fmt.Sprint(4 * cfg.specs),
		"-max-per-client", "0",
		"-stall-timeout", "2m",
	}
	clustered := cfg.nodes > 1
	ctls := make([]*controller, cfg.nodes)
	for i, addr := range addrs {
		args := append([]string(nil), common...)
		name := "daemon"
		if clustered {
			name = fmt.Sprintf("node-%d", i)
			args = append(args,
				"-node-id", addr,
				"-peers", strings.Join(addrs, ","),
				"-lease-ttl", cfg.leaseTTL.String(),
			)
		}
		ctls[i] = &controller{
			name:   name,
			bin:    bin,
			dir:    dataDir,
			addr:   addr,
			args:   args,
			inject: cfg.inject,
			seed:   cfg.seed + uint64(i)*101,
		}
		defer ctls[i].killCurrent()
	}
	for _, c := range ctls {
		if err := c.start(ctx); err != nil {
			return err
		}
	}
	fmt.Printf("tlbchaos: %d node(s) up (pool %d, data %s), %d clients x %d specs, %d kills scheduled\n",
		cfg.nodes, cfg.parallel, dataDir, cfg.clients, len(specs), cfg.kills)

	// The client fleet: client i drives specs[i%len(specs)], so several
	// clients coalesce onto each job, and every client survives crashes by
	// retrying, re-polling, rotating to a surviving node, and (after a
	// quarantine) resubmitting.
	fl := &fleet{resubmits: map[string]int{}}
	for _, addr := range addrs {
		fl.bases = append(fl.bases, "http://"+addr)
	}
	var wg sync.WaitGroup
	results := make([]clientResult, cfg.clients)
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = fl.drive(ctx, fmt.Sprintf("client-%02d", i), specs[i%len(specs)])
		}(i)
	}

	// The kill schedule runs against live traffic. Single daemon: SIGKILL
	// and restart immediately, the classic crash-resume drill. Cluster:
	// pick a seeded victim node, SIGKILL it, and keep it down past the
	// lease TTL so its jobs' leases genuinely expire and surviving peers
	// adopt them — then resurrect it as the same identity, which also
	// exercises the zombie fencing path on its recovery claims.
	killState := cfg.seed ^ 0xbeef
	for k, delay := range delays {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return fmt.Errorf("deadline before kill %d", k+1)
		}
		victim := ctls[0]
		if clustered {
			// Draw the seeded victim from the nodes currently holding job
			// leases: killing an idle peer proves nothing about hand-off.
			// Only when no node owns anything (all jobs already terminal)
			// does the pick fall back to the whole cluster.
			candidates := leaseHolders(ctx, ctls)
			if len(candidates) == 0 {
				candidates = ctls
			}
			victim = candidates[splitmix.Next(&killState)%uint64(len(candidates))]
		}
		victim.kill(k + 1)
		if clustered {
			down := cfg.leaseTTL + time.Duration(500+splitmix.Next(&killState)%1000)*time.Millisecond
			fmt.Printf("tlbchaos: %s down for %s (lease TTL %s)\n", victim.name, down, cfg.leaseTTL)
			select {
			case <-time.After(down):
			case <-ctx.Done():
				return fmt.Errorf("deadline during %s's downtime", victim.name)
			}
		}
		if err := victim.start(ctx); err != nil {
			return fmt.Errorf("restart after kill %d: %w", k+1, err)
		}
	}
	fmt.Printf("tlbchaos: kill schedule complete (%d SIGKILLs), waiting for the fleet\n", len(delays))

	wg.Wait()
	if ctx.Err() != nil {
		return fmt.Errorf("harness deadline hit with clients outstanding")
	}

	// --- assertions over the survivors ---------------------------------
	var lost int
	for _, r := range results {
		if r.err != nil {
			lost++
			fmt.Printf("tlbchaos: %s LOST: %v\n", r.name, r.err)
		}
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d clients never got a result", lost, len(results))
	}

	var metrics string
	for _, c := range ctls {
		if m, err := httpGetString(ctx, "http://"+c.addr+"/metrics"); err == nil {
			metrics += m
		}
	}
	for _, c := range ctls {
		c.stopGracefully()
	}

	records, err := finalRecords(dataDir, cfg)
	if err != nil {
		return err
	}
	if err := checkBudgets(records, specs, cfg); err != nil {
		return err
	}
	if clustered {
		if err := checkLeaseHistory(dataDir, records); err != nil {
			return err
		}
		if cfg.minHandoffs > 0 {
			var handoffs int
			for _, j := range records {
				handoffs += j.Handoffs
			}
			if handoffs < cfg.minHandoffs {
				return fmt.Errorf("cluster drill produced %d hand-off(s), want >= %d — the kills never interrupted an owned job",
					handoffs, cfg.minHandoffs)
			}
		}
	}
	if err := checkBitIdentity(ctx, specs, results, cfg); err != nil {
		return err
	}

	summarize(records, results, metrics, cfg)
	return nil
}

// buildDaemon compiles ./cmd/tlbserved into a temp dir.
func buildDaemon(race bool) (string, error) {
	dir, err := os.MkdirTemp("", "tlbchaos-bin-")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "tlbserved")
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "./cmd/tlbserved")
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/tlbserved: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs reserves n distinct ephemeral ports (held concurrently so no
// two picks collide) then releases them; every generation of a node
// rebinds its own address so clients and peers need no rediscovery.
func freeAddrs(n int) ([]string, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// controller owns one node's daemon process across generations.
type controller struct {
	name   string
	bin    string
	dir    string
	addr   string
	args   []string
	inject string
	seed   uint64

	mu         sync.Mutex
	cmd        *exec.Cmd
	generation int
}

// start launches a daemon generation and waits until /healthz answers.
// Bind races with the freshly killed predecessor are retried.
func (c *controller) start(ctx context.Context) error {
	c.mu.Lock()
	c.generation++
	gen := c.generation
	args := append([]string{"-addr", c.addr, "-data", c.dir}, c.args...)
	if c.inject != "" {
		args = append(args, "-inject", c.inject, "-fault-seed", fmt.Sprint(c.seed+uint64(gen)))
	}
	c.mu.Unlock()

	for attempt := 0; ; attempt++ {
		cmd := exec.Command(c.bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		deadline := time.Now().Add(15 * time.Second)
		for {
			if _, err := httpGetString(ctx, "http://"+c.addr+"/healthz"); err == nil {
				c.mu.Lock()
				c.cmd = cmd
				c.mu.Unlock()
				fmt.Printf("tlbchaos: %s generation %d serving\n", c.name, gen)
				return nil
			}
			if exited := cmd.ProcessState; exited != nil || time.Now().After(deadline) {
				break
			}
			if err := cmd.Process.Signal(syscall.Signal(0)); err != nil {
				break // process died (e.g. lost the bind race)
			}
			select {
			case <-ctx.Done():
				cmd.Process.Kill()
				cmd.Wait()
				return ctx.Err()
			case <-time.After(10 * time.Millisecond):
			}
		}
		cmd.Process.Kill()
		cmd.Wait()
		if attempt >= 5 {
			return fmt.Errorf("%s generation %d never became healthy", c.name, gen)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// kill SIGKILLs the current generation — the crash under test, so no
// drain, no checkpoint flush beyond what already hit disk.
func (c *controller) kill(n int) {
	c.mu.Lock()
	cmd := c.cmd
	c.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Kill()
	cmd.Wait()
	fmt.Printf("tlbchaos: SIGKILL %d delivered to %s\n", n, c.name)
}

func (c *controller) killCurrent() {
	c.mu.Lock()
	cmd := c.cmd
	c.cmd = nil
	c.mu.Unlock()
	if cmd != nil && cmd.ProcessState == nil {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// stopGracefully SIGTERMs the final generation so its drain path also gets
// exercised once per run.
func (c *controller) stopGracefully() {
	c.mu.Lock()
	cmd := c.cmd
	c.cmd = nil
	c.mu.Unlock()
	if cmd == nil {
		return
	}
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// clientResult is one fleet member's outcome.
type clientResult struct {
	name   string
	specIx int
	id     string
	result []byte
	err    error
}

// fleet is the shared client-side state. bases lists every node's URL;
// a connection failure rotates the fleet to the next node, so clients ride
// out any single node's death the way a load balancer would move them.
type fleet struct {
	bases []string
	next  atomic.Uint32

	mu        sync.Mutex
	resubmits map[string]int // job ID -> resubmissions after loss/quarantine
}

// base is the fleet's current preferred node.
func (f *fleet) base() string { return f.bases[int(f.next.Load())%len(f.bases)] }

// rotate moves the fleet to the next node after a connection failure.
func (f *fleet) rotate() {
	if len(f.bases) > 1 {
		f.next.Add(1)
	}
}

var chaosHTTP = &http.Client{
	Transport: &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		ResponseHeaderTimeout: 5 * time.Second,
	},
}

// drive is one client's life: submit the spec (retrying connection
// failures and backpressure), poll the job to done (resubmitting if a
// crash quarantined the record), fetch the result.
func (f *fleet) drive(ctx context.Context, name string, spec job.Spec) clientResult {
	res := clientResult{name: name}
	raw, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	id, err := f.submit(ctx, name, raw)
	if err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	res.id = id
	for {
		j, code, err := f.poll(ctx, id)
		switch {
		case err != nil:
			res.err = fmt.Errorf("poll: %w", err)
			return res
		case code == http.StatusNotFound:
			// The record was quarantined by a crash mid-write: the job is
			// gone, so the client's contract is to submit again.
			f.mu.Lock()
			f.resubmits[id]++
			f.mu.Unlock()
			if _, err := f.submit(ctx, name, raw); err != nil {
				res.err = fmt.Errorf("resubmit: %w", err)
				return res
			}
		case j.State == job.StateDone:
			body, code, err := f.get(ctx, name, "/jobs/"+id+"/result")
			if err != nil || code != http.StatusOK {
				res.err = fmt.Errorf("result: code=%d err=%v", code, err)
				return res
			}
			res.result = body
			return res
		case j.State == job.StateFailed:
			res.err = fmt.Errorf("job %s failed terminally: %s", id, j.Error)
			return res
		case j.State == job.StateCanceled:
			res.err = fmt.Errorf("job %s canceled unexpectedly", id)
			return res
		}
		select {
		case <-ctx.Done():
			res.err = ctx.Err()
			return res
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// submit POSTs the spec until a daemon accepts it, backing off on
// connection failures (a node mid-restart rotates the fleet to a peer)
// and 429/503 (backpressure).
func (f *fleet) submit(ctx context.Context, name string, raw []byte) (string, error) {
	delay := 50 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base()+"/jobs", bytes.NewReader(raw))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", name)
		resp, err := chaosHTTP.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				err = rerr
				f.rotate()
			case resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK:
				var sub serve.SubmitResponse
				if err := json.Unmarshal(body, &sub); err != nil {
					return "", err
				}
				return sub.ID, nil
			case resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusServiceUnavailable:
				err = fmt.Errorf("backpressure: %s", resp.Status)
			default:
				return "", fmt.Errorf("submit rejected (%s): %s", resp.Status, strings.TrimSpace(string(body)))
			}
		} else {
			f.rotate()
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("%v (last: %v)", ctx.Err(), err)
		case <-time.After(delay):
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// poll GETs the job record, retrying connection failures.
func (f *fleet) poll(ctx context.Context, id string) (job.Job, int, error) {
	body, code, err := f.get(ctx, "", "/jobs/"+id)
	if err != nil {
		return job.Job{}, 0, err
	}
	if code != http.StatusOK {
		return job.Job{}, code, nil
	}
	var j job.Job
	if err := json.Unmarshal(body, &j); err != nil {
		return job.Job{}, 0, err
	}
	return j, code, nil
}

// get GETs path from the fleet's current node, retrying connection-level
// failures (rotating nodes) until ctx expires.
func (f *fleet) get(ctx context.Context, client, path string) ([]byte, int, error) {
	delay := 50 * time.Millisecond
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base()+path, nil)
		if err != nil {
			return nil, 0, err
		}
		if client != "" {
			req.Header.Set("X-Client-ID", client)
		}
		resp, err := chaosHTTP.Do(req)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				return body, resp.StatusCode, nil
			}
			err = rerr
		}
		f.rotate()
		select {
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("%v (last: %v)", ctx.Err(), err)
		case <-time.After(delay):
		}
		if delay < time.Second {
			delay *= 2
		}
	}
}

// leaseHolders returns the controllers whose current generation reports at
// least one held job lease. A node that is down or unreachable is simply
// not a candidate.
func leaseHolders(ctx context.Context, ctls []*controller) []*controller {
	var out []*controller
	for _, c := range ctls {
		m, err := httpGetString(ctx, "http://"+c.addr+"/metrics")
		if err != nil {
			continue
		}
		for _, line := range strings.Split(m, "\n") {
			rest, ok := strings.CutPrefix(line, "tlbserved_leases_held ")
			if !ok {
				continue
			}
			if n, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && n > 0 {
				out = append(out, c)
			}
			break
		}
	}
	return out
}

func httpGetString(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := chaosHTTP.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(raw), nil
}

// finalRecords parses every job record left in the data directory after the
// daemon has drained. An unparseable record is only legal when a torn-write
// fault was armed and the tear landed in the final generation (earlier tears
// are healed by the next restart); in that case the recovery contract is
// proved directly — a fresh Open over the directory must quarantine it —
// and the record is excluded from the budget audit. The client that owned
// it already produced a result (checked above), so nothing was lost.
func finalRecords(dir string, cfg chaosConfig) (map[string]job.Job, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]job.Job{}
	var torn []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".job.json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		var j job.Job
		if err := json.Unmarshal(raw, &j); err != nil {
			if cfg.inject != "" {
				torn = append(torn, e.Name())
				continue
			}
			return nil, fmt.Errorf("final record %s unparseable: %w", e.Name(), err)
		}
		out[j.ID] = j
	}
	if len(torn) > 0 {
		if err := checkQuarantineHeals(dir, torn); err != nil {
			return nil, err
		}
		fmt.Printf("tlbchaos: %d torn record(s) from injected %s quarantined on reopen\n",
			len(torn), cfg.inject)
	}
	return out, nil
}

// checkQuarantineHeals reopens the drained data directory the way a
// restarted daemon would and requires every torn record to be moved aside
// to <name>.corrupt rather than wedging or surviving as-is.
func checkQuarantineHeals(dir string, torn []string) error {
	nop := job.RunnerFunc(func(context.Context, job.Spec, func(job.Event)) (json.RawMessage, error) {
		return nil, fmt.Errorf("audit queue never runs jobs")
	})
	q, err := job.Open(dir, nop)
	if err != nil {
		return fmt.Errorf("reopen over torn records: %w", err)
	}
	defer q.Close()
	if got := q.Metrics().Quarantined; got < int64(len(torn)) {
		return fmt.Errorf("reopen quarantined %d record(s), want >= %d", got, len(torn))
	}
	for _, name := range torn {
		if _, err := os.Stat(filepath.Join(dir, name+".corrupt")); err != nil {
			return fmt.Errorf("torn record %s not quarantined on reopen: %v", name, err)
		}
	}
	return nil
}

// checkBudgets asserts bounded duplication: one execution per crash
// resume, hand-off adoption, or consumed retry/stall — nothing silently
// re-ran beyond that, and no record overdrew its persisted budget.
func checkBudgets(records map[string]job.Job, specs []job.Spec, cfg chaosConfig) error {
	for id, j := range records {
		if j.Retries > cfg.retries {
			return fmt.Errorf("job %s consumed %d retries, budget %d", id, j.Retries, cfg.retries)
		}
		maxExec := 1 + cfg.kills + j.Retries + j.Stalls + j.Handoffs
		if j.Executions > maxExec {
			return fmt.Errorf("job %s executed %d times, max allowed %d (kills %d, retries %d, stalls %d, handoffs %d)",
				id, j.Executions, maxExec, cfg.kills, j.Retries, j.Stalls, j.Handoffs)
		}
	}
	return nil
}

// checkLeaseHistory audits the cluster's on-disk ownership trail. Lease
// files are never deleted and every claim takes exactly disk-max+1 via an
// exclusive create, so a correct run leaves, for every job, a gapless
// epoch sequence 1..max with no duplicates possible — a gap would mean an
// epoch was claimed against a stale view of the history, exactly the dual-
// ownership fencing exists to prevent. The terminal record must carry the
// newest epoch's lease: the job's last durable write came from the one
// node that owned it at the end, not from a fenced zombie.
func checkLeaseHistory(dir string, records map[string]job.Job) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	epochs := map[string][]uint64{}
	for _, e := range entries {
		name := e.Name()
		i := strings.Index(name, ".lease.")
		if i < 0 || strings.HasSuffix(name, ".tmp") {
			continue
		}
		epoch, err := strconv.ParseUint(name[i+len(".lease."):], 10, 64)
		if err != nil {
			return fmt.Errorf("unparseable lease filename %s: %v", name, err)
		}
		epochs[name[:i]] = append(epochs[name[:i]], epoch)
	}
	if len(epochs) == 0 {
		return fmt.Errorf("cluster run left no lease files — leases were never active")
	}
	for id, es := range epochs {
		sort.Slice(es, func(a, b int) bool { return es[a] < es[b] })
		for k, e := range es {
			if e != uint64(k+1) {
				return fmt.Errorf("job %s lease history has a gap: epochs %v (want 1..%d gapless)", id, es, len(es))
			}
		}
		j, ok := records[id]
		if !ok {
			continue // quarantined or torn record, audited separately
		}
		if j.Lease == nil {
			return fmt.Errorf("job %s record carries no lease despite %d claimed epoch(s)", id, len(es))
		}
		if max := es[len(es)-1]; j.Lease.Epoch != max {
			return fmt.Errorf("job %s final record written under epoch %d but newest claimed epoch is %d — a stale write got the last word",
				id, j.Lease.Epoch, max)
		}
	}
	fmt.Printf("tlbchaos: lease histories gapless for %d job(s), every final record owned at its newest epoch\n", len(epochs))
	return nil
}

// checkBitIdentity runs every distinct spec through an in-process
// CampaignRunner at the daemon's worker count and requires the daemon's
// served bytes to match exactly.
func checkBitIdentity(ctx context.Context, specs []job.Spec, results []clientResult, cfg chaosConfig) error {
	refDir, err := os.MkdirTemp("", "tlbchaos-ref-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(refDir)
	runner := &serve.CampaignRunner{Dir: refDir, Pool: pool.New(cfg.parallel)}
	refs := map[string][]byte{}
	for _, spec := range specs {
		id, err := spec.ID()
		if err != nil {
			return err
		}
		if _, ok := refs[id]; ok {
			continue
		}
		raw, err := runner.Run(ctx, spec.Normalize(), func(job.Event) {})
		if err != nil {
			return fmt.Errorf("reference run %s: %w", id, err)
		}
		refs[id] = raw
	}
	for _, r := range results {
		want, ok := refs[r.id]
		if !ok {
			return fmt.Errorf("%s holds unknown job %s", r.name, r.id)
		}
		if !bytes.Equal(r.result, want) {
			servedPath := filepath.Join(os.TempDir(), "tlbchaos-served-"+r.id+".json")
			directPath := filepath.Join(os.TempDir(), "tlbchaos-direct-"+r.id+".json")
			os.WriteFile(servedPath, r.result, 0o644)
			os.WriteFile(directPath, want, 0o644)
			return fmt.Errorf("%s: job %s served %d bytes differing from the direct run's %d — results are not bit-identical (dumped to %s, %s)",
				r.name, r.id, len(r.result), len(want), servedPath, directPath)
		}
	}
	return nil
}

func summarize(records map[string]job.Job, results []clientResult, metrics string, cfg chaosConfig) {
	var exec, retries, stalls, handoffs int
	for _, j := range records {
		exec += j.Executions
		retries += j.Retries
		stalls += j.Stalls
		handoffs += j.Handoffs
	}
	fmt.Printf("tlbchaos: %d clients served, %d jobs, %d executions, %d retries, %d stalls, %d handoffs, %d kills across %d node(s)\n",
		len(results), len(records), exec, retries, stalls, handoffs, cfg.kills, cfg.nodes)
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "tlbserved_jobs_quarantined_total") ||
			strings.HasPrefix(line, "tlbserved_retries_total") ||
			strings.HasPrefix(line, "tlbserved_rejected_total") ||
			strings.HasPrefix(line, "tlbserved_jobs_recovered_total") ||
			strings.HasPrefix(line, "tlbserved_handoffs_total") ||
			strings.HasPrefix(line, "tlbserved_fenced_writes_total") ||
			strings.HasPrefix(line, "tlbserved_node_info") {
			fmt.Println("tlbchaos:   " + line)
		}
	}
	if cfg.nodes > 1 {
		fmt.Println("tlbchaos: zero lost jobs, duplication within budget, lease histories sound, results bit-identical")
		return
	}
	fmt.Println("tlbchaos: zero lost jobs, duplication within budget, results bit-identical")
}
