package vmm_test

import (
	"bytes"
	"testing"

	"daisy/internal/asm"
	"daisy/internal/core"
	"daisy/internal/golden"
	"daisy/internal/mem"
	"daisy/internal/tradcomp/sched"
	"daisy/internal/vmm"
	"daisy/internal/workload"
)

// codePage is one page of a loaded program and the entry it is
// translated from: the program's entry on its own page, else the base.
type codePage struct {
	mem   *mem.Memory
	entry uint32
}

// codePages loads every workload and every random fuzzer program and
// lists each one's code pages under the given page size.
func codePages(t *testing.T, pageSize uint32) []codePage {
	t.Helper()
	var progs []*asm.Program
	for _, w := range workload.All() {
		prog, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	for _, src := range vmm.RandomPrograms() {
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	var pages []codePage
	for _, prog := range progs {
		m := mem.New(8 << 20)
		if err := prog.Load(m); err != nil {
			t.Fatal(err)
		}
		seen := map[uint32]bool{}
		for _, c := range prog.Chunks {
			for base := c.Addr &^ (pageSize - 1); base < c.Addr+uint32(len(c.Data)); base += pageSize {
				if seen[base] {
					continue
				}
				seen[base] = true
				e := base
				if entry := prog.Entry(); entry&^(pageSize-1) == base {
					e = entry
				}
				pages = append(pages, codePage{m, e})
			}
		}
	}
	return pages
}

// TestWarmTranslatorMatchesFresh translates every code page of the eight
// workloads and of the random fuzzer programs on one translator, in
// sequence, then the first pages again, under the default and the tier-2
// translator options. Only after all of them have run does it compare each
// translation with a fresh translator's: its encoding, the fields the
// encoding leaves out (what the translation golden hashes) and the
// translator effort it cost. A group left pointing into scratch that a
// later group reused would differ.
func TestWarmTranslatorMatchesFresh(t *testing.T) {
	base := vmm.DefaultOptions().Trans
	pages := codePages(t, base.PageSize)
	seq := append(pages[:len(pages):len(pages)], pages[:8]...)
	for _, md := range []struct {
		name string
		opt  core.Options
	}{
		{"default", base},
		{"tier2", sched.Tier2().Derive(base, nil)},
	} {
		t.Run(md.name, func(t *testing.T) {
			type warmPage struct {
				codePage
				pt   *core.PageTranslation
				work core.Stats
				err  error
			}
			warm := core.New(nil, md.opt)
			var done []warmPage
			for _, pg := range seq {
				warm.Mem = pg.mem
				before := warm.Stats
				pt, err := warm.TranslatePage(pg.entry)
				work := warm.Stats.Sub(before)
				work.Nanos = 0
				done = append(done, warmPage{pg, pt, work, err})
			}
			for i, w := range done {
				fresh := core.New(w.mem, md.opt)
				pt, err := fresh.TranslatePage(w.entry)
				fresh.Stats.Nanos = 0
				if (err != nil) != (w.err != nil) {
					t.Fatalf("translation %d at %#x: warm error %v, fresh error %v", i, w.entry, w.err, err)
				}
				if err != nil {
					continue
				}
				got, gerr := golden.AppendTranslation(nil, w.pt)
				want, werr := golden.AppendTranslation(nil, pt)
				if gerr != nil || werr != nil {
					t.Fatalf("translation %d at %#x: %v, %v", i, w.entry, gerr, werr)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("translation %d at %#x: the warm translator's %d groups differ from a fresh translator's",
						i, w.entry, len(w.pt.Groups))
				}
				if w.work != fresh.Stats {
					t.Errorf("translation %d at %#x: warm translator's effort %+v, a fresh one's %+v",
						i, w.entry, w.work, fresh.Stats)
				}
			}
			t.Logf("%d translations, %d pages", len(done), len(pages))
		})
	}
}
