package secbench

// This file is the differential fault harness: for each fault-injection site
// it runs a clean campaign and a faulted campaign over identical trial seeds
// and classifies every faulted trial against three acceptable outcomes:
//
//   - detected: the trial errored and was quarantined with a reported kind
//     (the invariant checker's "invariant", the core's "fault", ...);
//   - benign: the fault landed but the trial's observable outcome is
//     bit-identical to the clean run's (the upset hit dead state);
//   - latent: the injector's trigger ordinal was never reached, so no fault
//     actually landed.
//
// Anything else — an outcome that differs from the clean run with no
// detection reported — is silent corruption, the one result the layer
// exists to rule out. A passing fault matrix therefore establishes the
// PR's survivor-statistics guarantee constructively: surviving trials are
// bit-identical to the clean campaign over exactly those trial indices.

import (
	"errors"
	"fmt"
	"path/filepath"

	"securetlb/internal/assert"
	"securetlb/internal/checkpoint"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/pool"
)

// DesignsForSite returns the designs a machine fault site applies to: the
// design-specific sites (the RF TLB's RNG bias, the RI TLB's stuck key
// register, the FS TLB's dropped flush strobe) run only on their design;
// every other site runs on the full arena.
func DesignsForSite(site faultinject.Site) []Design {
	switch {
	case site.RFOnly():
		return []Design{DesignRF}
	case site.RIOnly():
		return []Design{DesignRI}
	case site.FSOnly():
		return []Design{DesignFS}
	}
	return AllDesigns()
}

// FaultCell is the outcome of one differential fault campaign: one site, one
// vulnerability, one behaviour, Trials trials.
type FaultCell struct {
	Site   faultinject.Site
	Design string
	Vuln   string
	Mapped bool
	Trials int
	// Detected counts quarantined trials by kind ("invariant", "fault", ...).
	Detected map[string]int
	// Assertions counts "invariant"-kind detections by the name of the
	// declarative assertion that fired (assert.Violation.Assertion) — the
	// matrix's answer to "which property caught this fault".
	Assertions map[string]int
	// Benign counts trials where the fault fired but the outcome matched the
	// clean run bit-for-bit; Latent counts trials where it never fired.
	Benign, Latent int
	// Silent lists the trial indices whose outcome differed from the clean
	// run without any detection — the failure mode the layer must prevent.
	Silent []int
	// Details holds one example injector detail string per observed class,
	// for the matrix report.
	Detail string
}

// DetectedTotal sums detections across kinds.
func (fc FaultCell) DetectedTotal() int {
	n := 0
	for _, v := range fc.Detected {
		n += v
	}
	return n
}

// Kinds renders the detection map compactly in a stable order.
func (fc FaultCell) Kinds() string {
	s := ""
	for _, k := range []string{"invariant", "fault", "panic", "fuel-exhausted", "bench-failed", "corrupt-refused", "tail-recomputed"} {
		if n := fc.Detected[k]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", k, n)
		}
	}
	if s == "" {
		s = "-"
	}
	return s
}

// AssertionNames renders the assertion tally compactly, ordered as the
// catalog declares the assertions (a stable, meaningful order).
func (fc FaultCell) AssertionNames() string {
	s := ""
	for _, a := range assert.Catalog() {
		if n := fc.Assertions[a.Name]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", a.Name, n)
		}
	}
	if s == "" {
		s = "-"
	}
	return s
}

// RunFaultCell runs the differential campaign for one machine fault site.
// The receiver's Invariants/FaultSite settings are overridden: the clean
// campaign runs with invariants as configured and no faults; the faulted
// campaign arms site on every trial. trials <= 0 uses c.Trials.
func (c Config) RunFaultCell(v model.Vulnerability, mapped bool, site faultinject.Site, trials int) (FaultCell, error) {
	if trials <= 0 {
		trials = c.Trials
	}
	cell := FaultCell{
		Site:       site,
		Design:     c.Design.String(),
		Vuln:       v.String(),
		Mapped:     mapped,
		Trials:     trials,
		Detected:   map[string]int{},
		Assertions: map[string]int{},
	}

	// Clean reference: every trial must complete; a clean failure means the
	// harness itself is broken for this (vulnerability, design) pair.
	clean := c
	clean.FaultSite = ""
	cp, err := clean.newCampaign(v, mapped)
	if err != nil {
		return cell, err
	}
	ref := make([]bool, trials)
	for trial := 0; trial < trials; trial++ {
		miss, err := cp.runTrial(clean.trialSeed(trial, mapped), clean.fuel(), nil)
		if err != nil {
			return cell, fmt.Errorf("clean reference trial %d: %w", trial, err)
		}
		ref[trial] = miss
	}

	// Faulted run: fresh campaign, one injector armed per trial.
	faulted := c
	faulted.FaultSite = site
	fp, err := faulted.newCampaign(v, mapped)
	if err != nil {
		return cell, err
	}
	for trial := 0; trial < trials; trial++ {
		inj := faultinject.New(site, faulted.faultSeed(trial, mapped))
		if err := inj.Arm(assert.Unwrap(fp.machine.TLB), fp.machine.PT, fp.machine.Mem); err != nil {
			return cell, err
		}
		var miss bool
		err := pool.Safely(func() error {
			var terr error
			miss, terr = fp.runTrial(faulted.trialSeed(trial, mapped), faulted.fuel(), nil)
			return terr
		})
		inj.Disarm()
		if cell.Detail == "" && inj.Fired() {
			cell.Detail = inj.Detail()
		}
		switch {
		case err != nil:
			kind, ok := classifyTrialErr(err)
			if !ok {
				return cell, fmt.Errorf("faulted trial %d: infrastructure error: %w", trial, err)
			}
			cell.Detected[kind]++
			var av *assert.Violation
			if errors.As(err, &av) {
				cell.Assertions[av.Assertion]++
			}
		case miss != ref[trial]:
			cell.Silent = append(cell.Silent, trial)
		case inj.Fired():
			cell.Benign++
		default:
			cell.Latent++
		}
	}
	return cell, nil
}

// RestOutcome classifies a resume from a checkpoint corrupted at rest.
type RestOutcome int

// The acceptable outcomes of VerifyCheckpointFault. Anything else — a
// resume that returns different content — is silent corruption and is
// reported as an error instead.
const (
	// RestRefused: the resume failed loudly (checkpoint.ErrCorrupt,
	// ErrMismatch, or a version refusal). A corrupt checkpoint is never
	// resumed.
	RestRefused RestOutcome = iota
	// RestIntact: the resume recovered the unit bit-identical; the damage
	// hit bytes with no semantic content.
	RestIntact
	// RestRecomputed: the unit was lost to a cut tail — the damage left its
	// frame an unterminated last line, which the resume drops — and was
	// recomputed and recorded again into a valid log.
	RestRecomputed
)

func (o RestOutcome) String() string {
	switch o {
	case RestRefused:
		return "refused"
	case RestIntact:
		return "intact"
	case RestRecomputed:
		return "unit lost to a cut tail, recomputed"
	}
	return fmt.Sprintf("RestOutcome(%d)", int(o))
}

// VerifyCheckpointFault exercises one at-rest checkpoint fault site: it
// writes a valid checkpoint carrying this campaign's fingerprint, corrupts
// the file with the site, resumes it, and classifies the resume as a
// RestOutcome. For RestRecomputed it also records the unit again, as the
// runner would after recomputing it, and requires the log to resume it
// intact. A resume that succeeds with different content is silent
// corruption and is returned as an error.
func (c Config) VerifyCheckpointFault(dir string, site faultinject.Site, seed uint64) (outcome RestOutcome, detail string, err error) {
	path := filepath.Join(dir, fmt.Sprintf("ck-%s-%x.json", site, seed))
	fp := c.Fingerprint(false)
	ck, err := checkpoint.Open(path, fp, 1, false)
	if err != nil {
		return RestRefused, "", err
	}
	const key = "unit-under-test"
	want := unitCounts{Misses: 7, Survivors: 9}
	if err := ck.Record(key, want); err != nil {
		return RestRefused, "", err
	}
	detail, err = faultinject.CorruptFile(site, path, seed)
	if err != nil {
		return RestRefused, detail, err
	}
	re, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		// Loud refusal: a corrupt checkpoint must never be resumed. The
		// checksum and parse guards surface as ErrCorrupt; corruption of the
		// fingerprint field itself surfaces as ErrMismatch; a corrupted
		// version field as a version refusal. Every one is a detection.
		return RestRefused, detail, nil
	}
	var got unitCounts
	ok, err := re.Lookup(key, &got)
	if err != nil {
		return RestRefused, detail, nil
	}
	same := func(u unitCounts) bool {
		return u.Misses == want.Misses && u.Survivors == want.Survivors && len(u.Quarantined) == 0
	}
	switch {
	case ok && same(got) && re.Len() == 1:
		return RestIntact, detail, nil
	case !ok && re.Len() == 0:
		if err := re.Record(key, want); err != nil {
			return RestRecomputed, detail, fmt.Errorf("recording the recomputed unit after %s (%s): %w", site, detail, err)
		}
		again, err := checkpoint.Open(path, fp, 1, true)
		if err != nil {
			return RestRecomputed, detail, fmt.Errorf("log invalid after recomputing the unit lost to %s (%s): %w", site, detail, err)
		}
		got = unitCounts{}
		if ok, err := again.Lookup(key, &got); !ok || err != nil || !same(got) || again.Len() != 1 {
			return RestRecomputed, detail, fmt.Errorf("recomputed unit did not resume after %s (%s): got %+v want %+v", site, detail, got, want)
		}
		return RestRecomputed, detail, nil
	}
	return RestIntact, detail, fmt.Errorf("checkpoint resumed silently with corrupt content after %s (%s): got %+v want %+v", site, detail, got, want)
}
