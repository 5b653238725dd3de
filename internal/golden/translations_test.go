package golden

// The translation golden. The state and table goldens pin what translated
// code does; this one pins the code itself. Every page a machine installs
// is hashed — its encoded groups, the fields the encoding leaves out
// (base addresses, deopt tags, layout addresses and sizes), the group
// counters and the translator effort it cost — so a change that only
// reorganizes how the translator works must leave every line unchanged.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"daisy/internal/core"
	"daisy/internal/interp"
	"daisy/internal/mem"
	"daisy/internal/vliw"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// translationModes are the machine configurations the translation golden
// covers: the default tier-1 machine, the tier-2 wall's configuration,
// Chapter 6's interpretive compilation and deferred (imprecise) commits.
var translationModes = []struct {
	name string
	opt  func() vmm.Options
}{
	{"tier1", vmm.DefaultOptions},
	{"tier2", tier2Options},
	{"interpretive", func() vmm.Options {
		opt := vmm.DefaultOptions()
		opt.Interpretive = true
		return opt
	}},
	{"imprecise", func() vmm.Options {
		opt := vmm.DefaultOptions()
		opt.Trans.PreciseExceptions = false
		return opt
	}},
}

// pageHasher folds every page the machine reports as translated into one
// SHA-256, in report order.
type pageHasher struct {
	vmm.NopObserver
	h   hash.Hash
	buf []byte
	err error
}

func (o *pageHasher) put(vs ...uint64) {
	for _, v := range vs {
		o.buf = binary.BigEndian.AppendUint64(o.buf, v)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (o *pageHasher) Translated(pt *core.PageTranslation, work core.Stats, _ vmm.AsyncLatency) {
	o.buf = o.buf[:0]
	o.put(uint64(pt.Base), uint64(len(pt.Order)), uint64(pt.CodeBytes))
	for _, e := range pt.Order {
		g := pt.Groups[e]
		code, err := vliw.EncodeGroup(g)
		if err != nil && o.err == nil {
			o.err = fmt.Errorf("page %#x group %#x: %w", pt.Base, e, err)
		}
		o.put(uint64(e), uint64(g.Tier), uint64(g.BaseInsts), uint64(g.Parcels), uint64(len(code)))
		o.buf = append(o.buf, code...)
		for _, v := range g.VLIWs {
			o.put(uint64(v.Addr), uint64(v.Bytes))
			v.Walk(func(n *vliw.Node) {
				for i := range n.Ops {
					o.put(uint64(n.Ops[i].BaseAddr), uint64(int64(n.Ops[i].Deopt)))
				}
			})
		}
		o.put(uint64(len(g.Deopt)))
		for _, recs := range g.Deopt {
			o.put(uint64(len(recs)))
			for _, r := range recs {
				o.put(uint64(r.Arch.Kind), uint64(r.Arch.N), uint64(r.Ren.Kind), uint64(r.Ren.N),
					uint64(r.Addr), b2u(r.Verify))
			}
		}
	}
	o.put(work.Groups, work.BaseInsts, work.Parcels, work.VLIWs, work.CodeBytes,
		work.WorkUnits, work.PathClones)
	o.h.Write(o.buf)
}

// translationDigest runs w to halt at golden scale under opt and returns
// the hash of every translation the machine installed.
func translationDigest(w workload.Workload, opt vmm.Options) (string, error) {
	prog, err := w.Build()
	if err != nil {
		return "", err
	}
	m := mem.New(memSize)
	if err := prog.Load(m); err != nil {
		return "", err
	}
	ma, err := vmm.NewMachine(m, &interp.Env{In: w.Input(goldenScale)}, opt)
	if err != nil {
		return "", err
	}
	ph := &pageHasher{h: sha256.New()}
	ma.Observe(ph)
	if err := ma.Run(prog.Entry(), 0); err != nil {
		return "", err
	}
	if ph.err != nil {
		return "", ph.err
	}
	return fmt.Sprintf("%x", ph.h.Sum(nil)), nil
}

// TestTranslationGoldens pins every translated page of every workload in
// every translation mode to testdata/golden/translations.txt, one line per
// workload and mode. Translation is deterministic, so a change to the
// translator's bookkeeping that is meant to leave its output alone must
// leave this file byte-identical; a deliberate change to the translations
// is re-recorded with -update.
func TestTranslationGoldens(t *testing.T) {
	path := filepath.Join("testdata", "golden", "translations.txt")
	want := map[string]string{}
	if !*update {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing translation golden (run with -update to record): %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			if f := strings.Fields(line); len(f) == 3 {
				want[f[0]+" "+f[1]] = f[2]
			}
		}
	}
	var mu sync.Mutex
	var lines []string
	t.Run("workloads", func(t *testing.T) {
		for _, w := range workload.All() {
			w := w
			t.Run(w.Name, func(t *testing.T) {
				t.Parallel()
				for _, md := range translationModes {
					got, err := translationDigest(w, md.opt())
					if err != nil {
						t.Fatalf("%s: %v", md.name, err)
					}
					key := w.Name + " " + md.name
					mu.Lock()
					lines = append(lines, key+" "+got)
					mu.Unlock()
					if !*update && want[key] != got {
						t.Errorf("%s: translations changed: got %s want %s (rerun with -update if the change is intended)",
							key, got, want[key])
					}
				}
			})
		}
	})
	if !*update {
		if len(lines) != len(want) {
			t.Errorf("%d workload and mode lines produced, %d in %s", len(lines), len(want), path)
		}
		return
	}
	if t.Failed() {
		return
	}
	sort.Strings(lines)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
