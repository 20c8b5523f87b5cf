package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"securetlb/internal/perf"
	"securetlb/internal/pool"
	"securetlb/internal/secbench"
)

// goldenFile holds per-iteration digests of the rendered tables at the
// default seed, recorded from full execution (no trace or stream replay),
// so every default-seed run also proves replay matches full execution.
type goldenFile struct {
	Seed    uint64              `json:"seed"`
	Digests map[string][]string `json:"digests"`
}

const goldenPath = "testdata/goldens.json"

//go:embed testdata/goldens.json
var goldensJSON []byte

// goldenCounts is how many iterations -update records per workload: more
// than a default-length run reaches on the machine the baseline was taken on.
var goldenCounts = map[string]int{"table4": 240, "table7-assert": 24, "fig7": 80}

func loadGoldens() map[string][]string {
	var g goldenFile
	if err := json.Unmarshal(goldensJSON, &g); err != nil {
		panic(fmt.Sprintf("embedded %s: %v", goldenPath, err))
	}
	return g.Digests
}

// updateGoldens regenerates the golden digests by full execution and
// writes them to testdata/goldens.json under the current directory.
func updateGoldens(ctx context.Context, log io.Writer) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "goldens-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	e := env{seed: defaultSeed, p: pool.New(0), scratch: scratch, z: defaultSizes, chk: &checks{}, log: io.Discard}
	g := goldenFile{Seed: defaultSeed, Digests: map[string][]string{}}
	full := func(cfg *secbench.Config) { cfg.DisableTrace = true }
	for _, name := range []string{"table4", "table7-assert"} {
		c := newCampaign(e, name == "table7-assert")
		for i := 0; i < goldenCounts[name]; i++ {
			r, err := c.run(ctx, i, full, nil, 0)
			if err != nil {
				return fmt.Errorf("%s iteration %d: %w", name, i, err)
			}
			g.Digests[name] = append(g.Digests[name], r.digest)
		}
		fmt.Fprintf(log, "%s: %d iterations\n", name, goldenCounts[name])
	}
	perf.DisableTrace = true
	defer func() { perf.DisableTrace = false }()
	f := newFig7(e)
	for i := 0; i < goldenCounts["fig7"]; i++ {
		r, err := f.sweep(ctx, i, nil, 0)
		if err != nil {
			return fmt.Errorf("fig7 sweep %d: %w", i, err)
		}
		g.Digests["fig7"] = append(g.Digests["fig7"], r.digest)
	}
	fmt.Fprintf(log, "fig7: %d sweeps\n", goldenCounts["fig7"])
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
