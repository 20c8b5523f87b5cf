package job

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"securetlb/internal/splitmix"
)

// Runner executes one campaign. The queue guarantees at most one Run per
// job ID at a time; publish streams progress events (the queue stamps the
// job ID and fans them out to subscribers). Run must honour ctx with the
// repo's drain semantics: stop admitting work, let started trials finish,
// flush durable state, then return the context error.
type Runner interface {
	Run(ctx context.Context, spec Spec, publish func(Event)) (json.RawMessage, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, spec Spec, publish func(Event)) (json.RawMessage, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, spec Spec, publish func(Event)) (json.RawMessage, error) {
	return f(ctx, spec, publish)
}

// Metrics is a point-in-time reading of the queue's counters.
type Metrics struct {
	// Submissions counts every admitted Submit call, however it was served.
	Submissions int64
	// CoalesceHits counts submissions that attached to an already live
	// (pending or running) job instead of starting an execution.
	CoalesceHits int64
	// CacheHits counts submissions served from a completed job's stored
	// result.
	CacheHits int64
	// Executions counts runner starts.
	Executions int64
	// Recovered counts jobs found pending or running on disk at Open —
	// interrupted work a restarted daemon resumes.
	Recovered int64
	// Quarantined counts corrupt job records Open moved aside to
	// <id>.job.json.corrupt instead of refusing to start.
	Quarantined int64
	// Retried counts transient-failure retries the queue scheduled.
	Retried int64
	// Stalled counts watchdog re-parks of jobs whose progress stalled.
	Stalled int64
	// RejectedFull counts submissions refused because the live-job depth
	// was at Limits.MaxPending.
	RejectedFull int64
	// RejectedClient counts submissions refused by the per-client
	// in-flight cap.
	RejectedClient int64
	// RejectedDraining counts submissions refused during shutdown.
	RejectedDraining int64
	// Handoffs counts expired-lease jobs this node's reaper claimed from a
	// dead peer (cluster mode).
	Handoffs int64
	// FencedWrites counts durable writes refused because a newer lease
	// epoch existed on disk — a zombie's torn record that never was.
	FencedWrites int64
	// LeaseRenewals and LeaseRenewFails count the keeper's renewal
	// outcomes.
	LeaseRenewals   int64
	LeaseRenewFails int64
	// LeasesLost counts jobs this node abandoned after its lease was
	// superseded (the hand-off seen from the losing side).
	LeasesLost int64
	// LeasesHeld is the current number of live jobs this node owns a
	// lease on (cluster mode).
	LeasesHeld int
	// Live is the current pending+running job count (the admission gauge).
	Live int
	// JobsByState counts the known jobs per state.
	JobsByState map[State]int
}

// Limits is the queue's admission-control and self-healing policy. The
// zero value reproduces the unhardened behaviour: unbounded admission, no
// retries, no watchdog.
type Limits struct {
	// MaxPending bounds the live (pending+running) job depth; submissions
	// that would start new work beyond it get ErrQueueFull. 0 = unbounded.
	MaxPending int
	// MaxPerClient bounds the live jobs any one client may be attached to;
	// further submissions get ErrClientBusy. 0 = unbounded. Attachment is
	// tracked in memory only — a daemon restart grants a fresh allowance.
	MaxPerClient int
	// RetryBudget is how many transient failures (FailTransient under the
	// Classify taxonomy) each job may retry with exponential backoff. The
	// consumed count is persisted in the job record, so a daemon restart
	// does not reset it. 0 = fail on the first error.
	RetryBudget int
	// RetryBase is the first backoff step (default 100ms); successive
	// retries double it, capped at RetryMax (default 5s), with ±50%
	// deterministic jitter derived from the job ID.
	RetryBase time.Duration
	RetryMax  time.Duration
	// StallTimeout arms the stuck-job watchdog: a running job whose Units
	// counter does not advance for this long is cancelled and re-parked to
	// pending (its checkpoint makes the re-run a resume). 0 = disabled.
	StallTimeout time.Duration
	// StallPoll is the watchdog's poll interval (default StallTimeout/4).
	StallPoll time.Duration
	// PersistHook, when set, intercepts the queue's durable record writes —
	// the fault-injection seam internal/faultinject's service sites use.
	PersistHook *PersistHook
	// Cluster enables multi-node operation over a shared directory: every
	// execution runs under an epoch-fenced lease, expired leases are
	// reaped and handed off, and stale-epoch writes are refused. The zero
	// value keeps the single-daemon behaviour.
	Cluster Cluster
}

// stallBudget bounds how many times the watchdog re-parks one job before
// declaring it failed, so a deterministically wedged runner cannot loop
// forever.
func (l Limits) stallBudget() int {
	if l.RetryBudget > 0 {
		return l.RetryBudget
	}
	return 3
}

func (l Limits) withDefaults() Limits {
	if l.RetryBase <= 0 {
		l.RetryBase = 100 * time.Millisecond
	}
	if l.RetryMax <= 0 {
		l.RetryMax = 5 * time.Second
	}
	if l.StallPoll <= 0 {
		if l.StallPoll = l.StallTimeout / 4; l.StallPoll <= 0 {
			l.StallPoll = 10 * time.Millisecond
		}
	}
	if l.Cluster.Node != "" {
		l.Cluster = l.Cluster.withDefaults()
	}
	return l
}

// PersistHook intercepts the queue's durable job-record writes, for fault
// injection. Both callbacks are optional.
type PersistHook struct {
	// OnWrite sees the record bytes about to be written and may transform
	// them (a torn write) or refuse them (a failed write).
	OnWrite func(path string, data []byte) ([]byte, error)
	// OnRename may refuse the atomic rename that installs the record.
	OnRename func(tmp, final string) error
	// OnLease intercepts lease-protocol steps (cluster mode): op is
	// "renew" when the keeper extends a lease deadline and "fence" when a
	// durable write checks its epoch is still current. Returning an error
	// fails that step — a refused renewal is skipped (the next tick tries
	// again), a refused fence check makes the write behave exactly as if
	// a newer epoch had been found.
	OnLease func(op, id string, epoch uint64) error
}

// progressMark is the watchdog's view of one running job: the last Units
// reading and when it changed.
type progressMark struct {
	units int
	at    time.Time
}

// Queue is the durable, coalescing job queue. All methods are safe for
// concurrent use.
type Queue struct {
	dir    string
	runner Runner
	lim    Limits

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // insertion order, for List
	cancels  map[string]context.CancelFunc
	subs     map[string][]chan Event
	attached map[string]map[string]bool // job ID -> clients holding a slot
	clients  map[string]int             // client -> live jobs attached
	progress map[string]progressMark
	stalled  map[string]bool
	fenced   map[string]bool // jobs whose lease was superseded mid-run
	live     int             // pending+running jobs, the admission gauge
	started  bool
	drain    bool
	metrics  Metrics

	root context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

const (
	jobSuffix = ".job.json"
	// corruptSuffix is appended to a quarantined record's filename.
	corruptSuffix = ".corrupt"
)

// Open loads the queue rooted at dir (created if missing) with the zero
// Limits. See OpenLimits.
func Open(dir string, r Runner) (*Queue, error) {
	return OpenLimits(dir, r, Limits{})
}

// OpenLimits loads the queue rooted at dir (created if missing). Jobs found
// pending or running — interrupted by whatever ended the previous daemon —
// are reset to pending and re-executed when Start is called; their
// checkpoint files make the re-execution a resume. Completed jobs keep
// serving cache hits. A corrupt or torn record is quarantined to
// <name>.corrupt and counted, never a reason to refuse startup: one bad
// file must not take down the whole daemon.
func OpenLimits(dir string, r Runner, lim Limits) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	q := &Queue{
		dir:      dir,
		runner:   r,
		lim:      lim.withDefaults(),
		jobs:     map[string]*Job{},
		cancels:  map[string]context.CancelFunc{},
		subs:     map[string][]chan Event{},
		attached: map[string]map[string]bool{},
		clients:  map[string]int{},
		progress: map[string]progressMark{},
		stalled:  map[string]bool{},
		fenced:   map[string]bool{},
	}
	q.root, q.stop = context.WithCancel(context.Background())
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), jobSuffix+".tmp") {
			// A crash between temp write and rename leaves the temp file;
			// the record it was replacing is still intact.
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if strings.HasSuffix(e.Name(), jobSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("job: %w", err)
		}
		j, err := decodeRecord(name, raw)
		if err != nil {
			if qerr := q.quarantine(name); qerr != nil {
				return nil, qerr
			}
			continue
		}
		if !j.State.Terminal() {
			if q.clustered() {
				// Shared directory: only reclaim live jobs this node can
				// prove ownership of (its own previous incarnation's, or
				// orphans whose lease has lapsed). Everything else belongs
				// to a living peer and stays out of local memory.
				if !q.recoverCluster(&j) {
					continue
				}
			} else {
				j.State = StatePending
				q.metrics.Recovered++
				// Best-effort: a transient write failure here must not stop
				// the daemon from coming up — the record still reads as
				// live on disk, and the next successful persist re-parks it.
				_ = q.persist(&j)
			}
		}
		if !j.State.Terminal() {
			q.live++
		}
		q.jobs[j.ID] = &j
		q.order = append(q.order, j.ID)
	}
	return q, nil
}

// decodeRecord parses one durable job record, refusing IDs that disagree
// with the filename and re-compacting the stored result (the record is
// stored indented for humans, which re-indents the embedded payload; a
// job served after a restart must return the exact bytes the runner
// produced).
func decodeRecord(name string, raw []byte) (Job, error) {
	var j Job
	if err := json.Unmarshal(raw, &j); err != nil {
		return Job{}, err
	}
	if j.ID == "" || strings.TrimSuffix(name, jobSuffix) != j.ID {
		return Job{}, fmt.Errorf("job: record %s names job %q", name, j.ID)
	}
	if len(j.Result) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, j.Result); err != nil {
			return Job{}, err
		}
		j.Result = append(json.RawMessage(nil), buf.Bytes()...)
	}
	return j, nil
}

// recoverCluster decides what a starting node does with a live record in
// the shared directory: a job healthily leased to a living peer is left
// alone (false), anything this node can claim — its own dead
// incarnation's jobs, lapsed leases, never-claimed orphans — is re-parked
// pending under a fresh epoch (true).
func (q *Queue) recoverCluster(j *Job) bool {
	max, lease := q.diskEpoch(j.ID)
	if max > 0 && lease.Node != q.lim.Cluster.Node && !lease.Expired(time.Now()) {
		return false
	}
	nl, ok := q.claimLease(j.ID, max+1)
	if !ok {
		return false
	}
	if max > 0 && lease.Node != "" && lease.Node != q.lim.Cluster.Node {
		// A peer's lapsed lease claimed at startup is a hand-off, not a
		// plain resume.
		j.Handoffs++
		q.metrics.Handoffs++
	}
	j.State = StatePending
	j.Lease = &nl
	q.metrics.Recovered++
	_ = q.persist(j) // best-effort, same contract as the single-node path
	return true
}

// quarantine moves a corrupt record aside so the queue can keep serving.
func (q *Queue) quarantine(name string) error {
	src := filepath.Join(q.dir, name)
	if err := os.Rename(src, src+corruptSuffix); err != nil {
		return fmt.Errorf("job: quarantining record %s: %w", name, err)
	}
	q.metrics.Quarantined++
	return nil
}

// Dir returns the queue's durable directory.
func (q *Queue) Dir() string { return q.dir }

// Start launches every pending job (the recovered backlog), arms the
// stall watchdog if configured, and marks the queue live. It must be
// called exactly once, before Submit.
func (q *Queue) Start() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.started = true
	for _, id := range q.order {
		if q.jobs[id].State == StatePending {
			q.launchLocked(id)
		}
	}
	if q.lim.StallTimeout > 0 {
		q.wg.Add(1)
		go q.watchdog()
	}
	if q.clustered() {
		q.wg.Add(2)
		go q.keeper()
		go q.reaper()
	}
}

// Submit enqueues a campaign with no client attribution. See SubmitFrom.
func (q *Queue) Submit(spec Spec) (Job, bool, bool, error) {
	return q.SubmitFrom("", spec)
}

// SubmitFrom enqueues a campaign on behalf of client (an opaque caller
// identity; "" opts out of per-client accounting). The spec is normalised
// and validated; its fingerprint is the job ID. A live job with the same
// ID absorbs the submission (coalesced=true), a completed one serves its
// stored result (cached=true), a failed or canceled one is re-run, and an
// unknown one starts fresh. Submissions that would start or attach to live
// work pass admission control first: ErrQueueFull when the live depth is
// at Limits.MaxPending, ErrClientBusy when the client holds MaxPerClient
// live jobs. The returned Job is a snapshot.
func (q *Queue) SubmitFrom(client string, spec Spec) (Job, bool, bool, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return Job{}, false, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return Job{}, false, false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.drain {
		q.metrics.RejectedDraining++
		return Job{}, false, false, ErrDraining
	}
	if j, ok := q.jobs[id]; ok {
		switch {
		case j.State == StateDone:
			// Cache hits cost nothing: always admitted.
			q.metrics.Submissions++
			j.CacheHits++
			q.metrics.CacheHits++
			return *j, false, true, nil
		case j.State.Terminal(): // failed or canceled: re-run under the same ID
			if err := q.admitLocked(client, id); err != nil {
				return Job{}, false, false, err
			}
			prev := *j
			if q.clustered() {
				// Take ownership of the re-run up front: the claim both
				// fences our pending write and arbitrates against a peer
				// re-running the same job — the loser simply attaches.
				max, _ := q.diskEpoch(id)
				lease, won := q.claimLease(id, max+1)
				if !won {
					q.metrics.Submissions++
					q.metrics.CoalesceHits++
					q.dropLocalLocked(id)
					if dj, ok := q.readRecordLocked(id); ok {
						return dj, true, false, nil
					}
					return prev, true, false, nil
				}
				j.Lease = &lease
			}
			q.metrics.Submissions++
			j.State = StatePending
			j.Error = ""
			j.Result = nil
			j.Units = 0
			j.Retries = 0
			j.Stalls = 0
			j.Handoffs = 0
			if err := q.persist(j); err != nil {
				*j = prev
				return Job{}, false, false, err
			}
			q.live++
			q.attachLocked(client, id)
			q.launchLocked(id)
			return *j, false, false, nil
		default: // pending or running: coalesce
			if err := q.admitClientLocked(client, id); err != nil {
				return Job{}, false, false, err
			}
			q.metrics.Submissions++
			q.attachLocked(client, id)
			j.Coalesced++
			q.metrics.CoalesceHits++
			return *j, true, false, nil
		}
	}
	if q.clustered() {
		if j, coalesced, cached, handled, err := q.submitRemoteLocked(client, id); handled {
			return j, coalesced, cached, err
		}
	}
	if err := q.admitLocked(client, id); err != nil {
		return Job{}, false, false, err
	}
	j := &Job{ID: id, Spec: spec, State: StatePending}
	if err := q.persist(j); err != nil {
		return Job{}, false, false, err
	}
	q.metrics.Submissions++
	q.live++
	q.attachLocked(client, id)
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.launchLocked(id)
	return *j, false, false, nil
}

// submitRemoteLocked consults the shared directory for a job this node has
// never seen: a submission may hit a record some peer wrote. handled=false
// means no usable record exists and the caller should start fresh.
// Callers hold q.mu.
func (q *Queue) submitRemoteLocked(client, id string) (Job, bool, bool, bool, error) {
	dj, ok := q.readRecordLocked(id)
	if !ok {
		return Job{}, false, false, false, nil
	}
	switch {
	case dj.State == StateDone:
		// A peer finished this campaign: adopt the record as a local cache
		// entry — content addressing makes its result as good as our own.
		q.metrics.Submissions++
		dj.CacheHits++
		q.metrics.CacheHits++
		cp := dj
		q.jobs[id] = &cp
		q.order = append(q.order, id)
		return dj, false, true, true, nil
	case dj.State.Terminal():
		// Failed or canceled elsewhere: re-run here if we win the claim.
		if err := q.admitLocked(client, id); err != nil {
			return Job{}, false, false, true, err
		}
		max, _ := q.diskEpoch(id)
		lease, won := q.claimLease(id, max+1)
		if !won {
			q.metrics.Submissions++
			q.metrics.CoalesceHits++
			return dj, true, false, true, nil
		}
		dj.State = StatePending
		dj.Error = ""
		dj.Result = nil
		dj.Units = 0
		dj.Retries = 0
		dj.Stalls = 0
		dj.Handoffs = 0
		dj.Lease = &lease
		cp := dj
		if err := q.persist(&cp); err != nil {
			return Job{}, false, false, true, err
		}
		q.metrics.Submissions++
		q.live++
		q.attachLocked(client, id)
		q.jobs[id] = &cp
		q.order = append(q.order, id)
		q.launchLocked(id)
		return cp, false, false, true, nil
	default:
		// Live on a peer: the submission coalesces cluster-wide — the
		// caller polls any node and reads the shared record. Per-client
		// slots are not charged; the owning node accounts the execution.
		q.metrics.Submissions++
		q.metrics.CoalesceHits++
		return dj, true, false, true, nil
	}
}

// admitLocked applies both admission gates for a submission that starts
// new live work. Callers hold q.mu.
func (q *Queue) admitLocked(client, id string) error {
	if q.lim.MaxPending > 0 && q.live >= q.lim.MaxPending {
		q.metrics.RejectedFull++
		return ErrQueueFull
	}
	return q.admitClientLocked(client, id)
}

// admitClientLocked applies the per-client in-flight cap. Attaching again
// to a job the client already holds is free. Callers hold q.mu.
func (q *Queue) admitClientLocked(client, id string) error {
	if client == "" || q.lim.MaxPerClient <= 0 {
		return nil
	}
	if q.attached[id][client] {
		return nil
	}
	if q.clients[client] >= q.lim.MaxPerClient {
		q.metrics.RejectedClient++
		return ErrClientBusy
	}
	return nil
}

// attachLocked records that client holds a slot on the live job id.
func (q *Queue) attachLocked(client, id string) {
	if client == "" {
		return
	}
	set := q.attached[id]
	if set == nil {
		set = map[string]bool{}
		q.attached[id] = set
	}
	if !set[client] {
		set[client] = true
		q.clients[client]++
	}
}

// Get returns a snapshot of the job with the given ID.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		if q.clustered() {
			// The record may live on a peer; the shared directory is the
			// cluster's authoritative view, so read it fresh each time.
			return q.readRecordLocked(id)
		}
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of every known job, in submission order. In
// cluster mode, records owned by peers (absent from local memory) are
// appended in ID order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.jobs[id])
	}
	if q.clustered() {
		out = append(out, q.listDiskLocked()...)
	}
	return out
}

// Ready reports whether the queue can accept new work, with a reason when
// it cannot — the daemon's readiness probe, distinct from liveness: a
// draining or saturated daemon is alive but should receive no new traffic.
func (q *Queue) Ready() (bool, string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.drain:
		return false, "draining"
	case q.lim.MaxPending > 0 && q.live >= q.lim.MaxPending:
		return false, fmt.Sprintf("at capacity (%d live jobs)", q.live)
	}
	return true, "ok"
}

// Cancel requests cancellation of a live job: admission stops, started
// trials drain, and the job lands in StateCanceled. A pending job with no
// executor (queued behind Start, or waiting out a retry backoff) is
// cancelled immediately. It reports whether the job was live (terminal
// jobs are left untouched).
func (q *Queue) Cancel(id string) (bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return false, ErrNotFound
	}
	if j.State.Terminal() {
		return false, nil
	}
	if cancel, ok := q.cancels[id]; ok {
		cancel()
		return true, nil
	}
	j.State = StateCanceled
	if perr := q.persist(j); errors.Is(perr, ErrStaleEpoch) {
		q.abandonLocked(id)
		return true, nil
	}
	q.publishLocked(id, Event{Type: "state", State: StateCanceled})
	q.finishLocked(id)
	return true, nil
}

// Subscribe returns a channel of the job's events: first a state snapshot
// (plus the result, for an already completed job), then live events until
// the job reaches a terminal state, when the channel closes. The returned
// stop function detaches the subscriber early; it is always safe to call.
func (q *Queue) Subscribe(id string) (<-chan Event, func(), error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		if q.clustered() {
			// A peer's terminal record can be streamed from disk (result,
			// then closing state — the live stream's terminal shape). Live
			// remote jobs are the serve layer's to follow (it polls the
			// shared record), so they stay ErrNotFound here.
			if jr, found := q.readRecordLocked(id); found && jr.State.Terminal() {
				ch := make(chan Event, 2)
				if jr.State == StateDone {
					ch <- Event{Job: jr.ID, Type: "result", Result: jr.Result}
				}
				ch <- Event{Job: jr.ID, Type: "state", State: jr.State, Error: jr.Error}
				close(ch)
				return ch, func() {}, nil
			}
		}
		return nil, nil, ErrNotFound
	}
	ch := make(chan Event, 256)
	if j.State.Terminal() {
		// Match the live stream's terminal ordering — result, then the
		// closing state event — so late subscribers see the same shape.
		if j.State == StateDone {
			ch <- Event{Job: j.ID, Type: "result", Result: j.Result}
		}
		ch <- Event{Job: j.ID, Type: "state", State: j.State, Error: j.Error}
		close(ch)
		return ch, func() {}, nil
	}
	ch <- Event{Job: j.ID, Type: "state", State: j.State, Error: j.Error}
	q.subs[id] = append(q.subs[id], ch)
	stop := func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		for i, c := range q.subs[id] {
			if c == ch {
				q.subs[id] = append(q.subs[id][:i], q.subs[id][i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, stop, nil
}

// Metrics returns a point-in-time reading of the queue's counters.
func (q *Queue) Metrics() Metrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := q.metrics
	m.Live = q.live
	m.JobsByState = map[State]int{}
	for _, j := range q.jobs {
		m.JobsByState[j.State]++
		if !j.State.Terminal() && j.Lease != nil && j.Lease.Node == q.lim.Cluster.Node {
			m.LeasesHeld++
		}
	}
	return m
}

// Close drains the queue: no new submissions are admitted, every live
// job's context is cancelled (started trials finish — nothing is
// preempted), executors flush their checkpoints and park their jobs back
// in StatePending on disk, and Close returns once all of them have. A
// subsequent Open of the same directory resumes the parked jobs.
func (q *Queue) Close() {
	q.mu.Lock()
	q.drain = true
	if q.clustered() {
		// Expire the leases of parked jobs (awaiting a retry backoff or
		// never launched) in place, so peers hand them off immediately
		// instead of waiting out the TTL. Executing jobs release in their
		// drain path once the checkpoint has flushed.
		for _, j := range q.jobs {
			if _, running := q.cancels[j.ID]; running {
				continue
			}
			if !j.State.Terminal() && j.Lease != nil && j.Lease.Node == q.lim.Cluster.Node {
				q.releaseLease(j)
			}
		}
	}
	q.mu.Unlock()
	q.stop()
	q.wg.Wait()
}

// --- internals --------------------------------------------------------------

// launchLocked starts the executor goroutine for a pending job. Callers
// hold q.mu; the queue must have been started.
func (q *Queue) launchLocked(id string) {
	if !q.started {
		return
	}
	if _, running := q.cancels[id]; running {
		return
	}
	ctx, cancel := context.WithCancel(q.root)
	q.cancels[id] = cancel
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		defer cancel()
		q.execute(ctx, id)
	}()
}

// execute runs one job to a terminal state (or parks it back to pending on
// a drain, watchdog stall, or retryable failure).
func (q *Queue) execute(ctx context.Context, id string) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StatePending {
		q.mu.Unlock()
		return
	}
	if q.clustered() && !q.acquireLocked(j) {
		// Lost the epoch claim: a peer owns this job now. Abandon it
		// locally — reads fall through to the shared record.
		q.abandonLocked(id)
		q.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Executions++
	q.metrics.Executions++
	spec := j.Spec
	q.progress[id] = progressMark{units: j.Units, at: time.Now()}
	if err := q.persist(j); err != nil {
		if errors.Is(err, ErrStaleEpoch) {
			q.abandonLocked(id)
			q.mu.Unlock()
			return
		}
		q.settleFailureLocked(j, err)
		q.mu.Unlock()
		return
	}
	q.publishLocked(j.ID, Event{Type: "state", State: StateRunning})
	q.mu.Unlock()

	result, err := q.runner.Run(ctx, spec, func(ev Event) {
		q.mu.Lock()
		defer q.mu.Unlock()
		if ev.Type == "progress" {
			if jj, ok := q.jobs[id]; ok && jj.Units != ev.Units {
				jj.Units = ev.Units
				q.progress[id] = progressMark{units: ev.Units, at: time.Now()}
				// Checkpoint progress doubles as lease renewal: an
				// advancing job never loses its ownership to the TTL.
				if q.clustered() && jj.Lease != nil && jj.Lease.Node == q.lim.Cluster.Node &&
					time.Until(jj.Lease.Deadline) < q.lim.Cluster.LeaseTTL*2/3 {
					q.renewLease(jj)
				}
			}
		}
		q.publishLocked(id, ev)
	})

	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.fenced[id]:
		// The keeper saw our epoch superseded and cancelled the run: the
		// job belongs to a peer, so leave its record strictly alone.
		q.abandonLocked(id)
	case err == nil:
		j.State = StateDone
		j.Result = result
		j.Error = ""
		if perr := q.persist(j); perr != nil {
			if errors.Is(perr, ErrStaleEpoch) {
				// A zombie finishing after hand-off: the result is refused
				// (the new owner will produce the identical bytes) and the
				// record stays the new owner's.
				q.abandonLocked(id)
				return
			}
			q.settleFailureLocked(j, perr)
			return
		}
		q.publishLocked(id, Event{Type: "result", Result: result})
		q.publishLocked(id, Event{Type: "state", State: StateDone})
		q.finishLocked(id)
	case ctx.Err() != nil && q.drain:
		// Daemon shutdown, not a user cancel: park the job for the next
		// daemon to resume from its checkpoint, and hand the lease back so
		// a peer's reaper can take over without waiting out the TTL.
		j.State = StatePending
		if perr := q.persist(j); perr == nil && q.clustered() &&
			j.Lease != nil && j.Lease.Node == q.lim.Cluster.Node {
			q.releaseLease(j)
		}
		q.publishLocked(id, Event{Type: "state", State: StatePending})
		q.closeSubsLocked(id)
		delete(q.cancels, id)
		delete(q.progress, id)
		delete(q.stalled, id)
	case ctx.Err() != nil && q.stalled[id]:
		q.settleStallLocked(j)
	case ctx.Err() != nil:
		j.State = StateCanceled
		if perr := q.persist(j); errors.Is(perr, ErrStaleEpoch) {
			q.abandonLocked(id)
			return
		}
		q.publishLocked(id, Event{Type: "state", State: StateCanceled})
		q.finishLocked(id)
	default:
		q.settleFailureLocked(j, err)
	}
}

// settleFailureLocked applies the retry policy to a failed execution:
// transient failures with budget left re-park the job pending and schedule
// a backed-off relaunch (subscribers stay attached); everything else is a
// terminal failure. Callers hold q.mu.
func (q *Queue) settleFailureLocked(j *Job, err error) {
	if q.lim.RetryBudget > 0 && j.Retries < q.lim.RetryBudget && Classify(err) == FailTransient {
		j.Retries++
		q.metrics.Retried++
		j.State = StatePending
		j.Result = nil
		j.Error = err.Error()
		if perr := q.persist(j); errors.Is(perr, ErrStaleEpoch) {
			q.abandonLocked(j.ID)
			return
		}
		q.publishLocked(j.ID, Event{Type: "retry", Error: err.Error(), Attempt: j.Retries})
		q.publishLocked(j.ID, Event{Type: "state", State: StatePending})
		delete(q.cancels, j.ID)
		delete(q.progress, j.ID)
		q.relaunchAfterLocked(j.ID, q.backoff(j.ID, j.Retries))
		return
	}
	q.failLocked(j, err)
}

// settleStallLocked re-parks a job the watchdog cancelled for stalled
// progress — unless it has exhausted its stall budget, in which case a
// wedged runner becomes a terminal failure rather than an infinite loop.
// Callers hold q.mu.
func (q *Queue) settleStallLocked(j *Job) {
	delete(q.stalled, j.ID)
	j.Stalls++
	q.metrics.Stalled++
	if j.Stalls > q.lim.stallBudget() {
		q.failLocked(j, fmt.Errorf("job: stalled %d times (no progress within %s)", j.Stalls, q.lim.StallTimeout))
		return
	}
	j.State = StatePending
	if perr := q.persist(j); errors.Is(perr, ErrStaleEpoch) {
		q.abandonLocked(j.ID)
		return
	}
	q.publishLocked(j.ID, Event{Type: "stall", Attempt: j.Stalls})
	q.publishLocked(j.ID, Event{Type: "state", State: StatePending})
	delete(q.cancels, j.ID)
	delete(q.progress, j.ID)
	q.relaunchAfterLocked(j.ID, q.backoff(j.ID, j.Stalls))
}

// relaunchAfterLocked schedules a parked job's relaunch after delay. A
// drain during the wait leaves the job parked pending on disk — exactly
// the state a restarted daemon resumes. Callers hold q.mu.
func (q *Queue) relaunchAfterLocked(id string, delay time.Duration) {
	q.wg.Add(1)
	go func() {
		defer q.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-q.root.Done():
			return
		case <-t.C:
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		if q.drain {
			return
		}
		if j, ok := q.jobs[id]; ok && j.State == StatePending {
			q.launchLocked(id)
		}
	}()
}

// backoff computes the delay before attempt (1-based): exponential from
// RetryBase, capped at RetryMax, with deterministic ±50% jitter derived
// from the job ID so a fleet of retrying jobs never thunders in lockstep
// yet every run of the same schedule is reproducible.
func (q *Queue) backoff(id string, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 16 {
		shift = 16
	}
	d := q.lim.RetryBase << shift
	if d > q.lim.RetryMax {
		d = q.lim.RetryMax
	}
	state := uint64(attempt)
	for _, b := range []byte(id) {
		state = state*0x100000001b3 + uint64(b)
	}
	z := splitmix.Next(&state)
	if half := d / 2; half > 0 {
		d = half + time.Duration(z%uint64(half))
	}
	return d
}

// watchdog is the stuck-job monitor: a running job whose progress mark has
// not moved within StallTimeout gets its context cancelled; execute then
// re-parks it via settleStallLocked.
func (q *Queue) watchdog() {
	defer q.wg.Done()
	ticker := time.NewTicker(q.lim.StallPoll)
	defer ticker.Stop()
	for {
		select {
		case <-q.root.Done():
			return
		case <-ticker.C:
		}
		now := time.Now()
		q.mu.Lock()
		for id, mark := range q.progress {
			j, ok := q.jobs[id]
			if !ok || j.State != StateRunning || q.stalled[id] {
				continue
			}
			if now.Sub(mark.at) > q.lim.StallTimeout {
				q.stalled[id] = true
				if cancel, ok := q.cancels[id]; ok {
					cancel()
				}
			}
		}
		q.mu.Unlock()
	}
}

// failLocked records a terminally failed execution. Callers hold q.mu.
func (q *Queue) failLocked(j *Job, err error) {
	j.State = StateFailed
	j.Error = err.Error()
	if perr := q.persist(j); errors.Is(perr, ErrStaleEpoch) {
		q.abandonLocked(j.ID)
		return
	}
	q.publishLocked(j.ID, Event{Type: "state", State: StateFailed, Error: j.Error})
	q.finishLocked(j.ID)
}

// finishLocked releases everything a job's terminal transition frees: its
// live-depth slot, its clients' in-flight slots, its subscribers and its
// watchdog state. Callers hold q.mu.
func (q *Queue) finishLocked(id string) {
	q.live--
	for c := range q.attached[id] {
		if q.clients[c]--; q.clients[c] <= 0 {
			delete(q.clients, c)
		}
	}
	delete(q.attached, id)
	q.closeSubsLocked(id)
	delete(q.cancels, id)
	delete(q.progress, id)
	delete(q.stalled, id)
	delete(q.fenced, id)
}

// publishLocked fans an event out to the job's subscribers. Sends never
// block the queue: a subscriber that has fallen 256 events behind loses
// the oldest semantics anyway, so the event is dropped for it.
func (q *Queue) publishLocked(id string, ev Event) {
	ev.Job = id
	for _, ch := range q.subs[id] {
		select {
		case ch <- ev:
		default:
		}
	}
}

func (q *Queue) closeSubsLocked(id string) {
	for _, ch := range q.subs[id] {
		close(ch)
	}
	delete(q.subs, id)
}

// persist writes a job record atomically (temp file + rename), the same
// torn-write discipline as the checkpoint files. Failures are marked
// transient: a disk hiccup is exactly what the retry budget is for — with
// one exception: in cluster mode every write passes the fencing check
// first, and ErrStaleEpoch is final, not transient (the job has a newer
// owner; retrying this node's write can never be right).
// Callers hold q.mu.
func (q *Queue) persist(j *Job) error {
	if q.clustered() {
		if err := q.fenceLocked(j); err != nil {
			return err
		}
	}
	raw, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	data := append(raw, '\n')
	path := filepath.Join(q.dir, j.ID+jobSuffix)
	if h := q.lim.PersistHook; h != nil && h.OnWrite != nil {
		if data, err = h.OnWrite(path, data); err != nil {
			return Transient(fmt.Errorf("job: record %s: %w", j.ID, err))
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return Transient(fmt.Errorf("job: %w", err))
	}
	if h := q.lim.PersistHook; h != nil && h.OnRename != nil {
		if err := h.OnRename(tmp, path); err != nil {
			os.Remove(tmp)
			return Transient(fmt.Errorf("job: record %s: %w", j.ID, err))
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return Transient(fmt.Errorf("job: %w", err))
	}
	return nil
}
