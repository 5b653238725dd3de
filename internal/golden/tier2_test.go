package golden

// The tier-2 equivalence wall. Optimizing retranslation (vmm.Options.Tier2)
// reschedules hot pages with deferred commits and a profiled superblock
// path — an aggressive transformation whose one non-negotiable property is
// that the guest cannot tell: byte-identical output, same completed
// instruction count, and a deterministic event stream. These tests pin all
// three against committed goldens (testdata/golden/<name>.tier2*.json) and
// against the tier-1 goldens recorded by golden_test.go.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/telemetry"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// translateObserver hands every installed translation to fn, before any of
// its code runs.
type translateObserver struct {
	vmm.NopObserver
	fn func(pt *core.PageTranslation)
}

func (o translateObserver) Translated(pt *core.PageTranslation, _ core.Stats, _ vmm.AsyncLatency) {
	o.fn(pt)
}

// tier2Options is the pinned configuration of the tier-2 golden wall: the
// default machine with optimizing retranslation forced on and a low
// promotion threshold, so even the short golden-scale runs promote their
// hot pages and execute real tier-2 groups.
func tier2Options() vmm.Options {
	opt := vmm.DefaultOptions()
	opt.Tier2 = true
	opt.Tier2Threshold = 4
	return opt
}

// TestGoldenTier2Runs locks the tier-2 fingerprints of every workload and
// holds the guest-visible half — output bytes and completed instruction
// count — exactly to the tier-1 goldens.
func TestGoldenTier2Runs(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			tel := telemetry.New(goldenTelOpt)
			got, err := CaptureRunOpts(w, goldenScale, tel, tier2Options())
			if err != nil {
				t.Fatal(err)
			}
			gotEv := CaptureEvents(w, goldenScale, tel, goldenTelOpt)

			// The architectural-compatibility assertion: a tier-2 machine
			// must be indistinguishable from tier-1 in everything the guest
			// can observe, even though its boundary stream (and so its state
			// digest) is legitimately different.
			var t1 Run
			if err := ReadJSON(filepath.Join("testdata", "golden", w.Name+".json"), &t1); err != nil {
				t.Fatalf("missing tier-1 golden: %v", err)
			}
			if got.OutputFNV != t1.OutputFNV || got.OutputLen != t1.OutputLen {
				t.Errorf("tier-2 guest output diverged from tier-1: got %s/%d want %s/%d",
					got.OutputFNV, got.OutputLen, t1.OutputFNV, t1.OutputLen)
			}
			if got.Insts != t1.Insts {
				t.Errorf("tier-2 completed %d base insts, tier-1 completed %d (deopt rollback must uncount re-executed work)",
					got.Insts, t1.Insts)
			}
			if got.FinalDigest != t1.FinalDigest {
				t.Errorf("tier-2 halt state %s differs from tier-1 %s", got.FinalDigest, t1.FinalDigest)
			}

			runPath := filepath.Join("testdata", "golden", w.Name+".tier2.json")
			evPath := filepath.Join("testdata", "golden", w.Name+".tier2.events.json")
			if *update {
				if err := WriteJSON(runPath, got); err != nil {
					t.Fatal(err)
				}
				if err := WriteJSON(evPath, gotEv); err != nil {
					t.Fatal(err)
				}
				return
			}
			var want Run
			if err := ReadJSON(runPath, &want); err != nil {
				t.Fatalf("missing tier-2 golden (run with -update to record): %v", err)
			}
			if !reflect.DeepEqual(*got, want) {
				t.Errorf("tier-2 state golden mismatch for %s:\n got  %+v\n want %+v\n(rerun with -update if the change is intended)",
					w.Name, *got, want)
			}
			var wantEv Events
			if err := ReadJSON(evPath, &wantEv); err != nil {
				t.Fatalf("missing tier-2 events golden (run with -update to record): %v", err)
			}
			if !reflect.DeepEqual(*gotEv, wantEv) {
				t.Errorf("tier-2 events golden mismatch for %s:\n got  %+v\n want %+v\n(rerun with -update if the change is intended)",
					w.Name, *gotEv, wantEv)
			}
		})
	}
}

// TestTier2TranslationDeterminism runs one hot workload twice with tier-2
// pinned on and insists both runs produce identical translations: the same
// pages promoted in the same order with byte-identical group schedules.
// This is what makes the tier-2 goldens above meaningful — promotion is
// driven purely by the deterministic instruction clock and the promotion
// profiler runs on cloned state, so no host timing can reach the schedule.
func TestTier2TranslationDeterminism(t *testing.T) {
	capture := func() (string, uint64, *vmm.Stats) {
		w, err := workload.ByName("c_sieve")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		m := mem.New(memSize)
		if err := prog.Load(m); err != nil {
			t.Fatal(err)
		}
		env := &interp.Env{In: w.Input(goldenScale)}
		ma, err := vmm.NewMachine(m, env, tier2Options())
		if err != nil {
			t.Fatal(err)
		}
		var log string
		digest := uint64(fnvOffset)
		ma.Observe(translateObserver{fn: func(pt *core.PageTranslation) {
			for _, e := range pt.Order {
				g := pt.Groups[e]
				log += fmt.Sprintf("%x:%d:%d;", e, g.TierOf(), len(g.VLIWs))
				digest = fnvBytes2(digest, []byte(g.Dump()))
			}
		}})
		if err := ma.Run(prog.Entry(), 0); err != nil {
			t.Fatal(err)
		}
		return log, digest, &ma.Stats
	}
	log1, d1, st1 := capture()
	log2, d2, st2 := capture()
	if st1.Tier2Promotions == 0 {
		t.Fatal("no tier-2 promotions happened; the determinism check is vacuous")
	}
	if st1.Tier2Dispatches == 0 {
		t.Fatal("no dispatches were served by a tier-2 group")
	}
	if log1 != log2 {
		t.Errorf("translation order/shape diverged between identical runs:\n run1 %s\n run2 %s", log1, log2)
	}
	if d1 != d2 {
		t.Errorf("translated group schedules diverged between identical runs: %016x vs %016x", d1, d2)
	}
	if st1.Tier2Promotions != st2.Tier2Promotions || st1.Tier2Deopts != st2.Tier2Deopts ||
		st1.Tier2Dispatches != st2.Tier2Dispatches {
		t.Errorf("tier-2 policy counters diverged: %d/%d/%d vs %d/%d/%d",
			st1.Tier2Promotions, st1.Tier2Deopts, st1.Tier2Dispatches,
			st2.Tier2Promotions, st2.Tier2Deopts, st2.Tier2Dispatches)
	}
}

// fnvBytes2 folds b into an existing FNV-1a accumulator.
func fnvBytes2(d uint64, b []byte) uint64 {
	for _, c := range b {
		d = (d ^ uint64(c)) * fnvPrime
	}
	return d
}
