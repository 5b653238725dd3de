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
// SHA-256, in report order. It also keeps, per page and tier, the
// translation last installed and its hash then: a translation is never
// changed once installed (the translator's scratch is reused group after
// group, and a group left pointing into it would change under the next
// one), so recheck requires every page still installed at the halt to
// hash as it did when it was installed.
type pageHasher struct {
	vmm.NopObserver
	h         hash.Hash
	buf       []byte
	err       error
	installed map[pageTier]installedPage
}

type pageTier struct {
	base uint32
	tier uint8
}

type installedPage struct {
	pt  *core.PageTranslation
	sum [sha256.Size]byte
}

// tierOf returns the tier of the page translation's groups.
func tierOf(pt *core.PageTranslation) uint8 {
	for _, g := range pt.Groups {
		return g.TierOf()
	}
	return 1
}

func (o *pageHasher) Translated(pt *core.PageTranslation, work core.Stats, _ vmm.AsyncLatency) {
	var err error
	o.buf, err = AppendTranslation(o.buf[:0], pt)
	if err != nil && o.err == nil {
		o.err = err
	}
	if o.installed == nil {
		o.installed = map[pageTier]installedPage{}
	}
	o.installed[pageTier{pt.Base, tierOf(pt)}] = installedPage{pt, sha256.Sum256(o.buf)}
	for _, v := range []uint64{work.Groups, work.BaseInsts, work.Parcels, work.VLIWs, work.CodeBytes,
		work.WorkUnits, work.PathClones} {
		o.buf = binary.BigEndian.AppendUint64(o.buf, v)
	}
	o.h.Write(o.buf)
}

// recheck hashes every page ma still has installed, tier-1 and tier-2,
// and requires the hash each had when it was installed.
func (o *pageHasher) recheck(ma *vmm.Machine) error {
	for tier, bases := range map[uint8][]uint32{1: ma.TranslatedPages(), 2: ma.Tier2Pages()} {
		for _, base := range bases {
			in, ok := o.installed[pageTier{base, tier}]
			if !ok {
				return fmt.Errorf("tier-%d page %#x is installed but was never reported", tier, base)
			}
			b, err := AppendTranslation(nil, in.pt)
			if err != nil {
				return err
			}
			if sha256.Sum256(b) != in.sum {
				return fmt.Errorf("tier-%d page %#x changed after it was installed", tier, base)
			}
		}
	}
	return nil
}

// translationBudget bounds a golden-scale run at ten times the longest
// workload (gcc, 94,311 instructions), so translated code that a broken
// translator left looping ends the run with an error instead of the test
// binary's timeout.
const translationBudget = 1_000_000

// translationDigest runs w to halt at golden scale under opt and returns
// the hash of every translation the machine installed, after checking
// that every page still installed at the halt is unchanged.
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
	runErr := ma.Run(prog.Entry(), translationBudget)
	// A translation changed after it was installed also explains a run
	// that went wrong, so it is reported first.
	if err := ph.recheck(ma); err != nil {
		return "", err
	}
	if runErr != nil {
		return "", runErr
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
