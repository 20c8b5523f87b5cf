package job

// Multi-node operation: several tlbserved daemons share one durable
// directory, and job ownership is arbitrated by lease records on disk.
//
// Every execution of a job runs under a lease — (node, epoch, deadline) —
// whose epoch is claimed by atomically creating the file
// <id>.lease.<epoch> (O_CREATE|O_EXCL, so exactly one node can ever hold
// an epoch). The holder renews the deadline on checkpoint progress and on
// a keeper tick; a reaper on every node scans for live jobs whose current
// lease has expired — the owner died, or wedged past its TTL — claims the
// next epoch and re-parks the job for a local resume (the checkpoint file
// makes the re-run a resume, so a hand-off costs only the units in
// flight).
//
// The epoch is a fencing token: Queue.persist refuses to write a live or
// terminal record when a newer epoch exists on disk (ErrStaleEpoch), so a
// resurrected zombie — a node that lost its lease mid-run but kept
// executing — cannot tear the new owner's record. Lease files are never
// deleted: the monotone epoch history is what makes fencing sound (a
// zombie comparing against a truncated history would pass), and it doubles
// as the audit trail cmd/tlbchaos checks executions against.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// ErrStaleEpoch is returned by the queue's persistence layer when a write
// is fenced: a newer lease epoch exists on disk, so this node no longer
// owns the job and its write was refused rather than tearing the current
// owner's record. It is deliberately not transient — retrying cannot help,
// the job has moved on without us.
var ErrStaleEpoch = errors.New("job: stale lease epoch (write fenced)")

// Cluster configures multi-node operation. The zero value (empty Node)
// disables leases entirely and preserves the single-daemon behaviour.
type Cluster struct {
	// Node is this node's identity, and must be unique per live node. The
	// daemon uses its advertised HTTP address, which lets any peer forward
	// requests to a job's current lease holder.
	Node string
	// LeaseTTL is how long a lease lives without renewal (default 3s). A
	// node that misses renewals for a full TTL is presumed dead and its
	// jobs are handed off.
	LeaseTTL time.Duration
	// ReapPoll is the reaper's scan interval (default LeaseTTL/2).
	ReapPoll time.Duration
}

func (c Cluster) withDefaults() Cluster {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.ReapPoll <= 0 {
		c.ReapPoll = c.LeaseTTL / 2
	}
	return c
}

// Lease is one node's ownership of one job execution: the fencing epoch
// it claimed and the deadline it must renew by.
type Lease struct {
	// Node is the owner's identity (its advertised address).
	Node string `json:"node"`
	// Epoch is the fencing token: strictly increasing per job, claimed by
	// exclusive file creation, never reused.
	Epoch uint64 `json:"epoch"`
	// Deadline is when the lease expires unless renewed. A lease is live
	// through its deadline and expired strictly after it.
	Deadline time.Time `json:"deadline"`
}

// Expired reports whether the lease is past its deadline at now. Renewal
// exactly at the deadline is still in time.
func (l Lease) Expired(now time.Time) bool { return now.After(l.Deadline) }

// leaseInfix separates the job ID from the epoch in lease filenames.
const leaseInfix = ".lease."

// clustered reports whether multi-node leasing is on.
func (q *Queue) clustered() bool { return q.lim.Cluster.Node != "" }

func (q *Queue) leasePath(id string, epoch uint64) string {
	return filepath.Join(q.dir, fmt.Sprintf("%s%s%d", id, leaseInfix, epoch))
}

// leaseBody is the lease file's payload: who holds the epoch and until
// when. The epoch itself lives in the filename, which is what makes the
// claim atomic.
type leaseBody struct {
	Node     string    `json:"node"`
	Deadline time.Time `json:"deadline"`
}

// claimLease attempts to take epoch for id by creating its lease file
// exclusively. Exactly one node can succeed per (id, epoch); losers get
// ok=false and must treat the job as owned elsewhere.
func (q *Queue) claimLease(id string, epoch uint64) (Lease, bool) {
	path := q.leasePath(id, epoch)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return Lease{}, false
	}
	l := Lease{Node: q.lim.Cluster.Node, Epoch: epoch, Deadline: time.Now().Add(q.lim.Cluster.LeaseTTL)}
	raw, _ := json.Marshal(leaseBody{Node: l.Node, Deadline: l.Deadline})
	f.Write(append(raw, '\n'))
	f.Close()
	return l, true
}

// renewLease extends our hold on the lease by rewriting its file
// atomically (temp + rename, like every other durable write). The hook
// seam lets faultinject fail a renewal.
func (q *Queue) renewLease(j *Job) error {
	if h := q.lim.PersistHook; h != nil && h.OnLease != nil {
		if err := h.OnLease("renew", j.ID, j.Lease.Epoch); err != nil {
			q.metrics.LeaseRenewFails++
			return err
		}
	}
	deadline := time.Now().Add(q.lim.Cluster.LeaseTTL)
	path := q.leasePath(j.ID, j.Lease.Epoch)
	raw, _ := json.Marshal(leaseBody{Node: j.Lease.Node, Deadline: deadline})
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		q.metrics.LeaseRenewFails++
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		q.metrics.LeaseRenewFails++
		return err
	}
	j.Lease.Deadline = deadline
	q.metrics.LeaseRenewals++
	return nil
}

// releaseLease expires our lease in place (deadline = now) so a peer's
// reaper can hand the job off immediately instead of waiting out the TTL.
// Used on graceful drain; the file itself stays, epochs are never erased.
func (q *Queue) releaseLease(j *Job) {
	path := q.leasePath(j.ID, j.Lease.Epoch)
	raw, _ := json.Marshal(leaseBody{Node: j.Lease.Node, Deadline: time.Now()})
	tmp := path + ".tmp"
	if os.WriteFile(tmp, append(raw, '\n'), 0o644) == nil {
		os.Rename(tmp, path)
	}
}

// diskEpoch returns the highest epoch ever claimed for id (0 = none) and
// the current lease at that epoch. A lease file we cannot parse — a reader
// racing the claimant's first write — is treated as live until its
// claimant writes a readable deadline: the conservative reading, since
// presuming it dead risks a dual claim.
//
// Epochs have no gaps — every claim is an O_EXCL create at (highest epoch
// seen)+1 and lease files are never deleted — so probing <id>.lease.1, .2,
// … up to the first missing one finds the highest, in O(this job's epochs)
// syscalls however much history the directory holds.
func (q *Queue) diskEpoch(id string) (uint64, Lease) {
	var max uint64
	for {
		if _, err := os.Lstat(q.leasePath(id, max+1)); err != nil {
			break
		}
		max++
	}
	if max == 0 {
		return 0, Lease{}
	}
	return max, q.readLease(id, max)
}

// readLease loads the lease body at (id, epoch); an unreadable body yields
// a far-future deadline (treated live, see diskEpoch).
func (q *Queue) readLease(id string, epoch uint64) Lease {
	l := Lease{Epoch: epoch, Deadline: time.Now().Add(24 * time.Hour)}
	raw, err := os.ReadFile(q.leasePath(id, epoch))
	if err != nil {
		return l
	}
	var body leaseBody
	if json.Unmarshal(raw, &body) != nil || body.Deadline.IsZero() {
		return l
	}
	l.Node, l.Deadline = body.Node, body.Deadline
	return l
}

// fenceLocked decides whether this node may durably write j's record: it
// must hold the job's newest epoch, or — for a brand-new record — no epoch
// may exist at all. Callers hold q.mu; cluster mode only.
func (q *Queue) fenceLocked(j *Job) error {
	var held uint64
	if j.Lease != nil && j.Lease.Node == q.lim.Cluster.Node {
		held = j.Lease.Epoch
	} else if j.Lease != nil {
		// A record carrying someone else's lease is theirs to write.
		q.metrics.FencedWrites++
		return fmt.Errorf("job: record %s is owned by %s: %w", j.ID, j.Lease.Node, ErrStaleEpoch)
	}
	if h := q.lim.PersistHook; h != nil && h.OnLease != nil {
		if err := h.OnLease("fence", j.ID, held); err != nil {
			q.metrics.FencedWrites++
			return fmt.Errorf("job: record %s: %v: %w", j.ID, err, ErrStaleEpoch)
		}
	}
	if max, _ := q.diskEpoch(j.ID); max > held {
		if j.Lease == nil {
			// Old epochs with no record file are a quarantined or purged
			// job's residue: a leaseless fresh submission may recreate the
			// record, it is not fencing anyone out.
			if _, err := os.Stat(filepath.Join(q.dir, j.ID+jobSuffix)); os.IsNotExist(err) {
				return nil
			}
		}
		q.metrics.FencedWrites++
		return fmt.Errorf("job: record %s: epoch %d superseded by %d: %w", j.ID, held, max, ErrStaleEpoch)
	}
	return nil
}

// acquireLocked secures a lease for executing j: an unexpired lease we
// already hold (a hand-off or retry re-park) is renewed and reused,
// otherwise the next epoch is claimed. ok=false means another node owns
// the job. Callers hold q.mu.
func (q *Queue) acquireLocked(j *Job) bool {
	now := time.Now()
	if j.Lease != nil && j.Lease.Node == q.lim.Cluster.Node && !j.Lease.Expired(now) {
		q.renewLease(j) // best-effort; the deadline we hold is still live
		return true
	}
	max, _ := q.diskEpoch(j.ID)
	lease, ok := q.claimLease(j.ID, max+1)
	if !ok {
		return false
	}
	j.Lease = &lease
	return true
}

// keeper is the lease-renewal loop: every LeaseTTL/3 it renews the leases
// of every live job this node owns, and — the zombie check — abandons any
// job whose epoch has been superseded on disk, cancelling its executor
// before it can waste more work that fencing would refuse anyway.
func (q *Queue) keeper() {
	defer q.wg.Done()
	ticker := time.NewTicker(q.lim.Cluster.LeaseTTL / 3)
	defer ticker.Stop()
	for {
		select {
		case <-q.root.Done():
			return
		case <-ticker.C:
		}
		q.mu.Lock()
		if q.drain {
			q.mu.Unlock()
			return
		}
		for _, id := range append([]string(nil), q.order...) {
			j, ok := q.jobs[id]
			if !ok || j.State.Terminal() || j.Lease == nil || j.Lease.Node != q.lim.Cluster.Node {
				continue
			}
			if max, _ := q.diskEpoch(id); max > j.Lease.Epoch {
				q.loseLocked(id)
				continue
			}
			q.renewLease(j)
		}
		q.mu.Unlock()
	}
}

// loseLocked reacts to a superseded lease: a running job's executor is
// cancelled (its settle path abandons), a parked one is abandoned on the
// spot. Callers hold q.mu.
func (q *Queue) loseLocked(id string) {
	q.fenced[id] = true
	if cancel, ok := q.cancels[id]; ok {
		cancel()
		return
	}
	q.abandonLocked(id)
}

// abandonLocked drops a job this node no longer owns: subscribers get a
// final hand-off event and the record leaves local memory entirely, so
// every later read falls through to the disk record the new owner
// maintains. Callers hold q.mu.
func (q *Queue) abandonLocked(id string) {
	q.metrics.LeasesLost++
	q.publishLocked(id, Event{Type: "handoff"})
	q.finishLocked(id)
	q.dropLocalLocked(id)
}

// dropLocalLocked removes a job from local memory without touching live
// accounting — for records that live on elsewhere (on disk, under another
// node's lease) rather than finishing here. Callers hold q.mu.
func (q *Queue) dropLocalLocked(id string) {
	delete(q.jobs, id)
	for i, oid := range q.order {
		if oid == id {
			q.order = append(q.order[:i], q.order[i+1:]...)
			break
		}
	}
}

// reaper is the node-death detector: every ReapPoll it scans the shared
// directory for live jobs whose current lease has expired — their owner
// died or wedged — claims the next epoch and re-parks them locally. The
// claim is the arbiter: when every node's reaper spots the same corpse,
// exactly one O_EXCL create wins the hand-off.
func (q *Queue) reaper() {
	defer q.wg.Done()
	ticker := time.NewTicker(q.lim.Cluster.ReapPoll)
	defer ticker.Stop()
	for {
		select {
		case <-q.root.Done():
			return
		case <-ticker.C:
		}
		q.mu.Lock()
		if q.drain {
			q.mu.Unlock()
			return
		}
		q.reapLocked()
		q.mu.Unlock()
	}
}

// reapLocked performs one reaper scan. Callers hold q.mu.
func (q *Queue) reapLocked() {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return
	}
	now := time.Now()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, jobSuffix) {
			continue
		}
		id := strings.TrimSuffix(name, jobSuffix)
		if j, ok := q.jobs[id]; ok && (!j.State.Terminal() || j.State == StateDone) {
			// Locally owned (running, or parked awaiting its backoff), or
			// done: done is final, no path re-runs a done job.
			continue
		}
		max, lease := q.diskEpoch(id)
		if max > 0 && !lease.Expired(now) {
			continue // healthily owned elsewhere
		}
		j, ok := q.readRecordLocked(id)
		if !ok || j.State.Terminal() {
			continue
		}
		if max == 0 {
			// A pending record no one ever claimed: its submitter died
			// between persist and launch. Give a just-born record a TTL of
			// grace before adopting it out from under a live submitter —
			// the claim would arbitrate anyway, this just avoids the churn.
			if info, err := e.Info(); err == nil && now.Sub(info.ModTime()) < q.lim.Cluster.LeaseTTL {
				continue
			}
		}
		newLease, won := q.claimLease(id, max+1)
		if !won {
			continue
		}
		q.adoptLocked(&j, newLease)
	}
}

// adoptLocked installs a reaped job as our own: parked pending under our
// fresh lease, hand-off accounted, and launched (its checkpoint makes the
// execution a resume). Callers hold q.mu.
func (q *Queue) adoptLocked(j *Job, lease Lease) {
	j.State = StatePending
	j.Handoffs++
	j.Lease = &lease
	if err := q.persist(j); err != nil {
		// Fenced or failed: someone even newer owns it, or the disk is
		// unhappy; either way the next reap tick re-evaluates.
		return
	}
	q.metrics.Handoffs++
	if _, known := q.jobs[j.ID]; !known {
		q.order = append(q.order, j.ID)
	}
	q.jobs[j.ID] = j
	q.live++
	q.publishLocked(j.ID, Event{Type: "handoff", Attempt: j.Handoffs})
	q.launchLocked(j.ID)
}

// readRecordLocked loads a job record straight from disk — the view of
// jobs other nodes own. Callers hold q.mu.
func (q *Queue) readRecordLocked(id string) (Job, bool) {
	raw, err := os.ReadFile(filepath.Join(q.dir, id+jobSuffix))
	if err != nil {
		return Job{}, false
	}
	j, err := decodeRecord(id+jobSuffix, raw)
	if err != nil {
		return Job{}, false
	}
	return j, true
}

// listDiskLocked returns records present on disk but not in local memory —
// remote jobs — sorted by ID for a stable List. Callers hold q.mu.
func (q *Queue) listDiskLocked() []Job {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return nil
	}
	var out []Job
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), jobSuffix) {
			continue
		}
		id := strings.TrimSuffix(e.Name(), jobSuffix)
		if _, ok := q.jobs[id]; ok {
			continue
		}
		if j, ok := q.readRecordLocked(id); ok {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
