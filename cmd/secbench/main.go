// Command secbench runs the micro security benchmarks of §5 and prints the
// simulation-vs-theory comparison of the paper's Table 4.
//
// Usage:
//
//	secbench                       # the paper's three designs, 500 trials each
//	secbench -design full          # every design, including the RI/FS extensions
//	secbench -design rf -trials 100
//	secbench -emit "Ad -> Vu -> Ad" -mapped   # print one generated benchmark
//	secbench -checkpoint run.json             # checkpoint progress as you go
//	secbench -checkpoint run.json -resume     # continue an interrupted run
//	secbench -invariants                      # runtime invariant checking on
//	secbench -invariants -inject tlb-tag-flip # fault every trial, detect, quarantine
//
// SIGINT/SIGTERM stop the campaign gracefully: no new work starts, running
// trials drain, the completed vulnerabilities are printed, a final
// checkpoint is flushed, and the process exits with status 130. Trials that
// panic, exhaust their instruction budget or fault are quarantined (excluded
// from the statistics) and listed after the result tables with the seed and
// trial index needed to reproduce them.
//
// Each design's campaign also reports on stderr how many of its trials it
// simulated: on SA, SP, FA and FS every trial of a unit repeats the first,
// so a campaign without -invariants, -inject or -no-trace runs one trial per
// unit and credits it to all.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"securetlb/internal/checkpoint"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/pool"
	"securetlb/internal/report"
	"securetlb/internal/secbench"
)

func main() {
	design := flag.String("design", "all", "designs to run: "+secbench.DesignUsage())
	trials := flag.Int("trials", 500, "trials per victim behaviour (paper: 500)")
	extended := flag.Bool("extended", false, "run the Appendix B (Table 7) targeted-invalidation benchmarks instead of the base 24")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	emit := flag.String("emit", "", "print the generated benchmark for a pattern, e.g. \"Ad -> Vu -> Ad\"")
	mapped := flag.Bool("mapped", true, "with -emit: generate the mapped or not-mapped variant")
	parallel := flag.Int("parallel", 0, "worker pool size for trial sharding (0 = all CPUs)")
	ckPath := flag.String("checkpoint", "", "checkpoint file: completed work units are recorded here")
	resume := flag.Bool("resume", false, "with -checkpoint: resume from an existing checkpoint file")
	ckEvery := flag.Int("checkpoint-every", 4, "flush the checkpoint every N completed work units")
	invariants := flag.Bool("invariants", false, "wrap every campaign TLB in the runtime invariant checker (violations quarantine the trial)")
	inject := flag.String("inject", "", "arm a fault-injection site on every trial (see faultbench -list); implies nothing about -invariants")
	faultSeed := flag.Uint64("fault-seed", 0xfa115eed, "campaign-level seed for -inject's per-trial injectors")
	noTrace := flag.Bool("no-trace", false, "disable trace-compiled trial replay; decode and execute every instruction of every trial (bit-identical, slower)")
	flag.Parse()

	designs, err := validateFlags(*design, *trials, *parallel, *ckEvery, *emit, *extended, *resume, *ckPath)
	if err != nil {
		fatal(err)
	}

	campaignCfg = campaignSettings{invariants: *invariants, faultSeed: *faultSeed, noTrace: *noTrace}
	if *inject != "" {
		site, err := faultinject.ParseSite(*inject)
		if err != nil {
			fatal(err)
		}
		campaignCfg.faultSite = site
	}

	if *emit != "" {
		emitBenchmark(*emit, *mapped, designs[0], *extended)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ck := openCheckpoint(designs, *trials, *extended, *ckPath, *resume, *ckEvery)

	var interrupted error
	if *jsonOut {
		interrupted = emitJSON(ctx, designs, *trials, *extended, *parallel, ck)
	} else {
		for _, d := range designs {
			err := runDesign(ctx, d, *trials, *extended, *parallel, ck)
			if err == nil {
				continue
			}
			if !isInterrupt(err) {
				fatal(err)
			}
			interrupted = err
			break
		}
	}
	if interrupted != nil {
		fmt.Fprintln(os.Stderr, "secbench: interrupted — results above cover the completed vulnerabilities only")
		if *ckPath != "" {
			fmt.Fprintf(os.Stderr, "secbench: progress saved; continue with -checkpoint %s -resume\n", *ckPath)
		} else {
			fmt.Fprintln(os.Stderr, "secbench: rerun with -checkpoint FILE to make interrupted runs resumable")
		}
		os.Exit(130)
	}
}

// validateFlags rejects invalid flag combinations up front with a clear
// message, instead of letting a bad value fail deep inside a campaign.
// It returns the designs the -design selector names.
func validateFlags(design string, trials, parallel, ckEvery int, emit string, extended, resume bool, ckPath string) ([]secbench.Design, error) {
	designs, err := secbench.ParseDesigns(design)
	if err != nil {
		return nil, err
	}
	if trials <= 0 {
		return nil, fmt.Errorf("-trials must be positive, got %d", trials)
	}
	if parallel < 0 {
		return nil, fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", parallel)
	}
	if ckEvery < 1 {
		return nil, fmt.Errorf("-checkpoint-every must be >= 1, got %d", ckEvery)
	}
	if resume && ckPath == "" {
		return nil, errors.New("-resume requires -checkpoint")
	}
	if emit != "" {
		if _, err := findVulnerability(emit, extended); err != nil {
			return nil, err
		}
	}
	return designs, nil
}

// findVulnerability resolves an -emit pattern to its vulnerability type.
func findVulnerability(pattern string, extended bool) (model.Vulnerability, error) {
	vulns := model.Enumerate()
	if extended {
		vulns = model.EnumerateExtended()
	}
	for _, v := range vulns {
		if v.Pattern.String() == pattern {
			return v, nil
		}
	}
	return model.Vulnerability{}, fmt.Errorf("no vulnerability with pattern %q; run tlbmodel for the list", pattern)
}

func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secbench:", err)
	os.Exit(1)
}

// campaignSettings carries the flag-selected robustness options into every
// campaign configuration (and so into the checkpoint fingerprint).
type campaignSettings struct {
	invariants bool
	faultSite  faultinject.Site
	faultSeed  uint64
	noTrace    bool
}

var campaignCfg campaignSettings

// configFor builds the campaign configuration for one design under the
// current flags.
func configFor(d secbench.Design, trials int) secbench.Config {
	cfg := secbench.DefaultConfig(d)
	cfg.Trials = trials
	cfg.Invariants = campaignCfg.invariants
	cfg.FaultSite = campaignCfg.faultSite
	cfg.FaultSeed = campaignCfg.faultSeed
	// Replay is bit-identical to full execution (the guard tests prove it),
	// so DisableTrace deliberately stays out of the checkpoint fingerprint: a
	// checkpointed run may be resumed with the other execution mode.
	cfg.DisableTrace = campaignCfg.noTrace
	return cfg
}

// campaignFingerprint identifies this invocation's full workload for
// checkpoint validation: the per-design fingerprints of every campaign the
// flags select.
func campaignFingerprint(designs []secbench.Design, trials int, extended bool) string {
	fps := make([]string, 0, len(designs))
	for _, d := range designs {
		fps = append(fps, configFor(d, trials).Fingerprint(extended))
	}
	return strings.Join(fps, ";")
}

func openCheckpoint(designs []secbench.Design, trials int, extended bool, path string, resume bool, every int) *checkpoint.File {
	if path == "" {
		if resume {
			fatal(errors.New("-resume requires -checkpoint"))
		}
		return nil
	}
	ck, err := checkpoint.Open(path, campaignFingerprint(designs, trials, extended), every, resume)
	if err != nil {
		fatal(err)
	}
	if resume && ck.Len() > 0 {
		fmt.Fprintf(os.Stderr, "secbench: resuming from %s (%d work units already complete)\n", path, ck.Len())
	}
	return ck
}

// runCampaign runs one design's campaign and reports on stderr how many of
// its credited trials were simulated: a unit of an unseeded design runs one
// trial for all of them, and a resumed unit runs none.
func runCampaign(ctx context.Context, d secbench.Design, trials int, extended bool, parallel int, ck *checkpoint.File) (secbench.CampaignReport, error) {
	cfg := configFor(d, trials)
	opts := secbench.RunOptions{Parallelism: parallel, Checkpoint: ck}
	var rep secbench.CampaignReport
	var err error
	if extended {
		rep, err = cfg.RunAllExtendedCtx(ctx, opts)
	} else {
		rep, err = cfg.RunAllCtx(ctx, opts)
	}
	if err == nil || isInterrupt(err) {
		fmt.Fprintf(os.Stderr, "secbench: %s: simulated %d of %d trials\n", d, rep.Simulated, 2*trials*len(rep.Results))
	}
	return rep, err
}

// jsonRow is the machine-readable form of one campaign row.
type jsonRow struct {
	Design          string `json:"design"`
	Strategy        string `json:"strategy"`
	Pattern         string `json:"pattern"`
	Observation     string `json:"observation"`
	Macro           string `json:"macro"`
	MappedMisses    int    `json:"n_mapped_misses"`
	NotMappedMisses int    `json:"n_not_mapped_misses"`
	Trials          int    `json:"trials_per_behaviour"`
	// MappedSurvivors/NotMappedSurvivors are the statistics' denominators:
	// Trials minus the quarantined trials of each behaviour.
	MappedSurvivors    int     `json:"n_mapped_survivors"`
	NotMappedSurvivors int     `json:"n_not_mapped_survivors"`
	P1                 float64 `json:"p1_star"`
	P2                 float64 `json:"p2_star"`
	C                  float64 `json:"c_star"`
	CIHigh             float64 `json:"c_star_ci95_high"`
	Defended           bool    `json:"defended"`
}

func emitJSON(ctx context.Context, designs []secbench.Design, trials int, extended bool, parallel int, ck *checkpoint.File) error {
	var rows []jsonRow
	var quarantined []secbench.Quarantined
	var interrupted error
	for _, d := range designs {
		rep, err := runCampaign(ctx, d, trials, extended, parallel, ck)
		if err != nil && !isInterrupt(err) {
			fatal(err)
		}
		for _, r := range rep.Results {
			rows = append(rows, jsonRow{
				Design:             d.String(),
				Strategy:           r.Vulnerability.Strategy,
				Pattern:            r.Vulnerability.Pattern.String(),
				Observation:        r.Vulnerability.Observation.String(),
				Macro:              r.Vulnerability.Macro,
				MappedMisses:       r.Counts.MappedMisses,
				NotMappedMisses:    r.Counts.NotMappedMisses,
				Trials:             trials,
				MappedSurvivors:    r.Counts.Mapped,
				NotMappedSurvivors: r.Counts.NotMapped,
				P1:                 r.P1,
				P2:                 r.P2,
				C:                  r.C,
				CIHigh:             r.CIHigh,
				Defended:           r.Defended(),
			})
		}
		quarantined = append(quarantined, rep.Quarantined...)
		if err != nil {
			interrupted = err
			break
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, report.Quarantine(quarantineRows(quarantined)))
	return interrupted
}

func quarantineRows(qs []secbench.Quarantined) [][]string {
	return secbench.QuarantineRows(qs)
}

// runDesign runs one design's campaign and prints its tables. It returns
// nil on full completion, the context error when interrupted (after
// printing the completed part), and any infrastructure error verbatim.
func runDesign(ctx context.Context, d secbench.Design, trials int, extended bool, parallel int, ck *checkpoint.File) error {
	rep, err := runCampaign(ctx, d, trials, extended, parallel, ck)
	if err != nil && !isInterrupt(err) {
		return err
	}
	fmt.Print(secbench.FormatCampaign(d, trials, pool.Workers(parallel), extended, rep))
	return err
}

func emitBenchmark(pattern string, mapped bool, d secbench.Design, extended bool) {
	v, err := findVulnerability(pattern, extended)
	if err != nil {
		fatal(err)
	}
	src, err := secbench.DefaultConfig(d).Generate(v, mapped)
	if err != nil {
		fatal(err)
	}
	fmt.Print(src)
}
