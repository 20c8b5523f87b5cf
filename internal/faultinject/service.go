package faultinject

import (
	"fmt"

	"securetlb/internal/splitmix"
)

// The service-layer fault sites: failures of the job queue's durable
// record writes, the exact I/O the daemon's crash-safety rests on. They
// are injected through internal/job's PersistHook (wire OnWrite/OnRename
// to a ServiceInjector's methods), not through Arm — they corrupt the
// service's persistence layer, not a machine.
const (
	// SiteJobWriteFail fails one job-record temp-file write outright, as a
	// full disk or I/O error would. Detected at the write: the queue
	// classifies it transient and retries within budget.
	SiteJobWriteFail Site = "job-write-fail"
	// SiteJobRenameFail fails the atomic rename installing one job record.
	// Detected at the rename, same retry path.
	SiteJobRenameFail Site = "job-rename-fail"
	// SiteJobTornWrite truncates one job record's bytes mid-JSON while
	// reporting the write successful — the silent at-rest case. Undetected
	// until the next Open, which must quarantine the torn record and keep
	// serving.
	SiteJobTornWrite Site = "job-torn-write"
)

// The cluster-layer fault sites: failures of the lease machinery that
// arbitrates job ownership across nodes. Wire OnLease alongside
// OnWrite/OnRename; they only fire on a clustered queue (a single-node
// queue never renews or fences).
const (
	// SiteLeaseRenewFail fails one lease renewal, as a transient I/O error
	// on the shared directory would. Absorbed: the keeper's next tick (or
	// the next checkpoint) renews again well inside the TTL, so the job
	// must complete with no hand-off at all.
	SiteLeaseRenewFail Site = "lease-renew-fail"
	// SiteLeaseExpireMidWrite fails every renewal of one job's lease from
	// the trigger on, so the lease genuinely expires while its executor is
	// still making progress. A reaper must hand the job off and the old
	// owner's next record write must be refused as stale.
	SiteLeaseExpireMidWrite Site = "lease-expired-mid-write"
	// SiteStaleEpochWrite refuses one fencing check, making a persist
	// behave exactly as a zombie's stale-epoch write: the record write is
	// refused, the local executor abandons, and a reaper hands the job off
	// to finish under a fresh epoch.
	SiteStaleEpochWrite Site = "stale-epoch-write"
)

// ServiceSites returns the single-daemon service-layer sites, in stable
// order. Lease sites are listed separately (LeaseSites) because they
// require a clustered queue to reach.
func ServiceSites() []Site {
	return []Site{SiteJobWriteFail, SiteJobRenameFail, SiteJobTornWrite}
}

// LeaseSites returns the cluster-layer lease sites, in stable order.
func LeaseSites() []Site {
	return []Site{SiteLeaseRenewFail, SiteLeaseExpireMidWrite, SiteStaleEpochWrite}
}

// ParseServiceSite validates a service- or lease-site name.
func ParseServiceSite(s string) (Site, error) {
	for _, site := range append(ServiceSites(), LeaseSites()...) {
		if s == string(site) {
			return site, nil
		}
	}
	return "", fmt.Errorf("faultinject: unknown service site %q (want one of %v)",
		s, append(ServiceSites(), LeaseSites()...))
}

// ServiceInjector injects one seeded fault at one service site. Like the
// machine Injector, every decision is a pure function of (site, seed): the
// persist ordinal it fires at and, for torn writes, where the record is
// cut. It fires at most once.
type ServiceInjector struct {
	site    Site
	trigger uint64
	r1      uint64

	count  uint64
	fired  bool
	detail string
	// victim is the job whose lease SiteLeaseExpireMidWrite starves: once
	// captured at the trigger, every later renewal of that job fails too,
	// so the expiry is real rather than a one-tick blip.
	victim string
}

// NewService returns a service injector for site derived from seed.
func NewService(site Site, seed uint64) (*ServiceInjector, error) {
	if _, err := ParseServiceSite(string(site)); err != nil {
		return nil, err
	}
	state := seed ^ uint64(len(site))<<56
	for _, b := range []byte(site) {
		state = state*0x100000001b3 + uint64(b)
	}
	in := &ServiceInjector{site: site}
	// A job's lifecycle is a handful of persists (pending, running,
	// terminal); a window of 6 lands the fault inside the first couple of
	// jobs' records.
	in.trigger = 1 + splitmix.Next(&state)%6
	in.r1 = splitmix.Next(&state)
	return in, nil
}

// Site returns the injector's site.
func (in *ServiceInjector) Site() Site { return in.site }

// Fired reports whether the fault actually landed.
func (in *ServiceInjector) Fired() bool { return in.fired }

// Detail describes the landed fault ("" until Fired).
func (in *ServiceInjector) Detail() string { return in.detail }

// OnWrite implements job.PersistHook.OnWrite: it counts persist attempts
// and, at the trigger ordinal, either fails the write (SiteJobWriteFail)
// or tears the record (SiteJobTornWrite).
func (in *ServiceInjector) OnWrite(path string, data []byte) ([]byte, error) {
	if in.site == SiteJobRenameFail {
		return data, nil // counted at the rename, not the write
	}
	in.count++
	if in.fired || in.count != in.trigger {
		return data, nil
	}
	switch in.site {
	case SiteJobWriteFail:
		in.fire("failed record write %d to %s", in.count, path)
		return nil, fmt.Errorf("faultinject: injected write failure (persist %d)", in.count)
	case SiteJobTornWrite:
		// Cut strictly inside the record so the remainder is unparseable
		// JSON, never an empty or complete file.
		cut := 1 + int(in.r1%uint64(len(data)-1))
		in.fire("tore record write %d to %s at byte %d of %d", in.count, path, cut, len(data))
		return data[:cut], nil
	}
	return data, nil
}

// OnRename implements job.PersistHook.OnRename: at the trigger ordinal,
// SiteJobRenameFail refuses the rename installing the record.
func (in *ServiceInjector) OnRename(tmp, final string) error {
	if in.site != SiteJobRenameFail {
		return nil
	}
	in.count++
	if in.fired || in.count != in.trigger {
		return nil
	}
	in.fire("failed rename %d of %s", in.count, final)
	return fmt.Errorf("faultinject: injected rename failure (persist %d)", in.count)
}

// OnLease implements job.PersistHook.OnLease: op is "renew" for lease
// renewals and "fence" for persist-time fencing checks. Each lease site
// counts only its own op, so the trigger ordinal stays a pure function of
// (site, seed) regardless of how the two interleave.
func (in *ServiceInjector) OnLease(op, id string, epoch uint64) error {
	switch in.site {
	case SiteLeaseRenewFail:
		if op != "renew" {
			return nil
		}
		in.count++
		if in.fired || in.count != in.trigger {
			return nil
		}
		in.fire("failed lease renewal %d of %s (epoch %d)", in.count, id, epoch)
		return fmt.Errorf("faultinject: injected lease renewal failure (renewal %d)", in.count)
	case SiteLeaseExpireMidWrite:
		if op != "renew" {
			return nil
		}
		if in.fired {
			if id == in.victim {
				return fmt.Errorf("faultinject: lease renewals suppressed for %s", id)
			}
			return nil
		}
		in.count++
		if in.count != in.trigger {
			return nil
		}
		in.victim = id
		in.fire("starving lease renewals of %s from renewal %d (epoch %d)", id, in.count, epoch)
		return fmt.Errorf("faultinject: injected lease expiry (renewal %d)", in.count)
	case SiteStaleEpochWrite:
		// Only a lease-holder's write (epoch > 0) can be a zombie write; a
		// fresh record's first persist has no epoch to be stale against.
		if op != "fence" || epoch == 0 {
			return nil
		}
		in.count++
		if in.fired || in.count != in.trigger {
			return nil
		}
		in.fire("refused fencing check %d of %s (epoch %d)", in.count, id, epoch)
		return fmt.Errorf("faultinject: injected stale-epoch write (fence %d)", in.count)
	}
	return nil
}

func (in *ServiceInjector) fire(format string, args ...any) {
	in.fired = true
	in.detail = fmt.Sprintf(format, args...)
}
