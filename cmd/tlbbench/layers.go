package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"securetlb/internal/assert"
	"securetlb/internal/checkpoint"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
)

// The sizes of the layer measurements and of the probes that measure, for
// a workload, the layers it bypasses.
const (
	streamTrials = 32 // trials per program the tlb and assert ladders replay
	probeTrials  = 50 // trials of the campaign probe (fig7)
	probeDecrypt = 2  // decryptions of the Figure 7 probe (campaign workloads)
	probeHistory = 8  // job history of the serving probe (non-serve workloads)
	probeJobs    = 4  // jobs of the serving probe, the fourth repeating the first
)

// opStream is one recorded sequence of TLB-facing ops (lookups, flushes,
// ASID switches and security-register writes), replayed trial by trial the
// way the campaign runner drives a TLB.
type opStream struct {
	ops       []trace.Op
	trials    int
	skipFlush bool                   // the ops begin with their own full flush
	seed      func(trial int) uint64 // per-trial reseed of seeded designs; nil for none
	// newTLB builds a fresh TLB of the stream's design and returns the
	// walker beneath it (which an assertion monitor re-walks against).
	newTLB func() (tlb.TLB, tlb.Walker, error)
}

// replayStream drives t through s and returns the lookups it made and the
// misses they took. It uses TranslateCycles where the replay VM would.
func replayStream(t tlb.TLB, s *opStream) (lookups, misses uint64, err error) {
	fast, _ := t.(tlb.FastTranslator)
	sec, _ := t.(tlb.SecureTLB)
	obs, _ := t.(tlb.ASIDObserver)
	rs, _ := assert.Unwrap(t).(reseeder)
	for trial := 0; trial < s.trials; trial++ {
		if !s.skipFlush {
			t.FlushAll()
		}
		t.ResetStats()
		if rs != nil && s.seed != nil {
			rs.Reseed(s.seed(trial))
		}
		var asid tlb.ASID
		var sbase, ssize uint64
		for i := range s.ops {
			op := &s.ops[i]
			switch op.Kind {
			case trace.KindDLookup:
				lookups++
				if fast != nil {
					_, err = fast.TranslateCycles(asid, tlb.VPN(op.Arg))
				} else {
					_, err = t.Translate(asid, tlb.VPN(op.Arg))
				}
				if err != nil {
					return lookups, misses, err
				}
			case trace.KindSetASID:
				asid = tlb.ASID(op.Arg)
				if obs != nil {
					obs.ObserveASID(asid)
				}
			case trace.KindFlushAll:
				t.FlushAll()
			case trace.KindFlushASID:
				t.FlushASID(tlb.ASID(op.Arg))
			case trace.KindFlushPage:
				t.FlushPage(asid, tlb.VPN(op.Arg>>tlb.PageShift))
			case trace.KindFlushPageAll:
				t.FlushPageAllASIDs(tlb.VPN(op.Arg >> tlb.PageShift))
			case trace.KindSecVictim:
				if sec != nil {
					sec.SetVictim(tlb.ASID(op.Arg))
				}
			case trace.KindSecBase, trace.KindSecSize:
				if op.Kind == trace.KindSecBase {
					sbase = op.Arg
				} else {
					ssize = op.Arg
				}
				if sec != nil {
					sec.SetSecureRegion(tlb.VPN(sbase), ssize)
				}
			}
		}
		misses += t.Stats().Misses
	}
	return lookups, misses, nil
}

// tlbLadder replays every design's streams on fresh TLBs, bare and under
// the assertion monitor, and reports the cost per lookup with the lookup
// count and miss ratio it was measured over.
func tlbLadder(streams map[string][]*opStream, vals map[string]float64, tr *tracer, parent int64) error {
	for _, code := range designCodes {
		if len(streams[code]) == 0 {
			return fmt.Errorf("tlb ladder: no streams for design %s", code)
		}
		var bare, monitored time.Duration
		var lookups, misses uint64
		sp := tr.begin("ladder", "tlb.replay", parent)
		for _, s := range streams[code] {
			t, _, err := s.newTLB()
			if err != nil {
				sp.end()
				return err
			}
			t0 := time.Now()
			l, m, err := replayStream(t, s)
			bare += time.Since(t0)
			if err != nil {
				sp.end()
				return fmt.Errorf("tlb ladder %s: %w", code, err)
			}
			lookups += l
			misses += m
		}
		sp.end()
		sp = tr.begin("ladder", "assert.replay", parent)
		for _, s := range streams[code] {
			t, w, err := s.newTLB()
			if err == nil {
				t, err = assert.Wrap(t, w, assert.Options{CrossCheck: true})
			}
			if err != nil {
				sp.end()
				return err
			}
			t0 := time.Now()
			_, _, err = replayStream(t, s)
			monitored += time.Since(t0)
			if err != nil {
				sp.end()
				return fmt.Errorf("assert ladder %s: %w", code, err)
			}
		}
		sp.end()
		vals["tlb.translate_ns."+code] = ratio(float64(bare.Nanoseconds()), float64(lookups))
		vals["assert.translate_ns."+code] = ratio(float64(monitored.Nanoseconds()), float64(lookups))
		vals["tlb.lookups."+code] = float64(lookups)
		vals["tlb.miss_ratio."+code] = ratio(float64(misses), float64(lookups))
	}
	return nil
}

// ckUnit is one work unit as a checkpoint records it.
type ckUnit struct {
	key string
	val any
}

// checkpointLadder records units one by one into a fresh checkpoint that
// flushes on every record (as the daemon's are), so the file grows to one
// request's unit count, and returns the mean cost of a Record+Flush.
func checkpointLadder(dir string, units []ckUnit) (float64, error) {
	path := filepath.Join(dir, "ladder.ckpt.json")
	os.Remove(path)
	defer os.Remove(path)
	f, err := checkpoint.Open(path, "tlbbench/ladder", 1, false)
	if err != nil {
		return 0, err
	}
	var took time.Duration
	for _, u := range units {
		t0 := time.Now()
		err := f.Record(u.key, u.val)
		took += time.Since(t0)
		if err != nil {
			return 0, err
		}
	}
	return ratio(float64(took.Nanoseconds())/1e3, float64(len(units))), nil
}
