package job

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scanEpoch is the directory-listing form of diskEpoch's epoch search: the
// highest N over every <id>.lease.N in dir. diskEpoch's probe must agree
// with it whenever epochs are gapless.
func scanEpoch(dir, id string) uint64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var max uint64
	prefix := id + leaseInfix
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		epoch, err := strconv.ParseUint(e.Name()[len(prefix):], 10, 64)
		if err == nil && epoch > max {
			max = epoch
		}
	}
	return max
}

// TestDiskEpochMatchesDirectoryScan drives claim chains on several jobs
// from two queues over one directory — every claim an acquire of an expired
// hold, alternating nodes, beside renewals that leave temp files' names in
// play — and checks after every step, from both queues, that the probe
// finds the epoch and lease the directory listing does.
func TestDiskEpochMatchesDirectoryScan(t *testing.T) {
	dir := t.TempDir()
	quiet := Cluster{LeaseTTL: time.Minute, ReapPoll: time.Minute}
	qa := openClusterQueue(t, dir, "a", instantRunner(), quiet, nil)
	qb := openClusterQueue(t, dir, "b", instantRunner(), quiet, nil)
	queues := []*Queue{qa, qb}
	// IDs that prefix one another exercise the listing's prefix match.
	ids := []string{"feedface0001", "feedface00011", "feedface0002"}
	jobs := map[string]*Job{}
	check := func(step string) {
		t.Helper()
		for _, q := range queues {
			for _, id := range ids {
				got, lease := q.diskEpoch(id)
				if want := scanEpoch(dir, id); got != want {
					t.Fatalf("%s: node %s: diskEpoch(%s) = %d, directory scan %d", step, q.lim.Cluster.Node, id, got, want)
				}
				if j := jobs[id]; j != nil && j.Lease != nil && (lease.Epoch != j.Lease.Epoch || lease.Node != j.Lease.Node) {
					t.Fatalf("%s: node %s: lease of %s = %+v, holder has %+v", step, q.lim.Cluster.Node, id, lease, *j.Lease)
				}
			}
		}
	}
	check("empty directory")
	for round := 0; round < 12; round++ {
		for i, id := range ids {
			if (round+i)%3 == 2 {
				continue // chains of different lengths
			}
			q := queues[(round+i)%2]
			j := jobs[id]
			if j == nil {
				j = &Job{ID: id}
				jobs[id] = j
			} else {
				// Expire the previous hold so the acquire claims anew.
				j.Lease.Deadline = time.Now().Add(-time.Second)
			}
			q.mu.Lock()
			ok := q.acquireLocked(j)
			if ok && round%4 == 1 {
				q.renewLease(j)
			}
			q.mu.Unlock()
			if !ok {
				t.Fatalf("round %d: node %s lost an uncontended claim of %s", round, q.lim.Cluster.Node, id)
			}
			check(fmt.Sprintf("round %d, %s by %s", round, id, q.lim.Cluster.Node))
		}
	}
}

// seedDoneHistory writes n done job records, each with its epoch-1 lease,
// as a daemon's completed history.
func seedDoneHistory(b *testing.B, dir string, n int) {
	b.Helper()
	q, err := OpenLimits(dir, instantRunner(), Limits{Cluster: Cluster{Node: "a", LeaseTTL: time.Minute, ReapPoll: time.Hour}})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%016x", i)
		lease, ok := q.claimLease(id, 1)
		if !ok {
			b.Fatalf("claim of %s lost", id)
		}
		j := &Job{ID: id, State: StateDone, Result: json.RawMessage(`{"ok":true}`), Lease: &lease}
		if err := q.persist(j); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReapScan is one reaper scan, under the queue lock, of a daemon
// restarted over a history of done records. Its cost should grow no faster
// than the directory: the 1,000-record scan within 2x of the 500-record one.
func BenchmarkReapScan(b *testing.B) {
	for _, n := range []int{500, 1000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "data")
			if err := os.Mkdir(dir, 0o755); err != nil {
				b.Fatal(err)
			}
			seedDoneHistory(b, dir, n)
			q, err := OpenLimits(dir, instantRunner(), Limits{Cluster: Cluster{Node: "a", LeaseTTL: time.Minute, ReapPoll: time.Hour}})
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.mu.Lock()
				q.reapLocked()
				q.mu.Unlock()
			}
		})
	}
}
