package vliw

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"daisy/internal/mem"
)

var update = flag.Bool("update", false, "rewrite testdata/exec.golden from the current executor")

const execGolden = "testdata/exec.golden"

// TestExecGolden pins what the executor computes for every primitive in
// every operand shape, which the state goldens cannot: they see only what
// the workloads' translations reach. everyPrimitive runs from primEntry
// twice, on a bare executor and on one with every hook set (hookExec).
// Each VLIW's outcome — the register file with its fault payloads by
// value, the counters it moved, its exit, its fault without pointers, its
// path step and the hooks' calls — is digested, as is each run's final
// memory, and compared with testdata/exec.golden. Rerun with -update only
// for a deliberate change of the modeled machine.
func TestExecGolden(t *testing.T) {
	got := append(execDigests("bare", false), execDigests("hooked", true)...)
	if *update {
		if err := os.WriteFile(execGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(execGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// execDigests runs everyPrimitive and returns one line per VLIW and one
// for the final memory.
func execDigests(run string, hooked bool) []string {
	e := &Executor{Mem: mem.New(2 << mem.ProtectShift)}
	primEntry(e)
	var calls []string
	if hooked {
		hookExec(e, &calls)
	}
	var lines []string
	line := func(what, rec string) {
		lines = append(lines, fmt.Sprintf("%s %s %x", run, what, sha256.Sum256([]byte(rec)))[:len(run)+len(what)+18])
	}
	for i, v := range everyPrimitive() {
		before := e.Stats
		calls = calls[:0]
		e.ResetPath()
		lf, f := e.Exec(v)
		line(fmt.Sprintf("vliw %d", i), fmt.Sprintf("%+v|%+v|%s|%s|%+v|%q",
			stateOf(e.RF), e.Stats.Sub(before), exitString(exitOf(lf)), faultString(v, f), e.Steps, calls))
	}
	line("memory", string(e.Mem.Bytes(0, e.Mem.Size())))
	return lines
}

// hookExec sets every hook of e, logging the calls into calls. The address
// translation moves addresses from 0x180 up by 0x40 and refuses 0x130 and
// 0x13c; the fault hook faults a load at 0x134 and the store at 0x138; the
// alias hook fails the verify at base address 0x77c; a journal records the
// stores; and the second protection unit is translated code.
func hookExec(e *Executor, calls *[]string) {
	log := func(format string, a ...any) { *calls = append(*calls, fmt.Sprintf(format, a...)) }
	e.OnFetch = func(v *VLIW) { log("fetch %d", v.ID) }
	e.OnMem = func(addr uint32, size int, write bool) { log("mem %#x/%d/%t", addr, size, write) }
	e.AddrXlate = func(vaddr uint32, write bool) (uint32, *mem.Fault) {
		log("xlate %#x/%t", vaddr, write)
		switch {
		case vaddr == 0x130 || vaddr == 0x13c:
			return 0, &mem.Fault{Addr: vaddr, Write: write, Kind: mem.FaultUnmapped}
		case vaddr >= 0x180 && vaddr < 0x1000:
			return vaddr + 0x40, nil
		}
		return vaddr, nil
	}
	e.FaultHook = func(pc, addr uint32, size int, write bool) *mem.Fault {
		log("hook %#x %#x/%d/%t", pc, addr, size, write)
		if addr == 0x134 || addr == 0x138 {
			return &mem.Fault{Addr: addr, Write: write, Kind: mem.FaultInjected}
		}
		return nil
	}
	e.AliasHook = func(pc, addr uint32) bool {
		log("alias %#x %#x", pc, addr)
		return pc == 0x77c
	}
	e.Journal = &StoreJournal{}
	e.Mem.SetReadOnly(1<<mem.ProtectShift, true)
}

// exitOf returns the exit of the leaf Exec returned, the zero Exit for the
// nil leaf of a fault.
func exitOf(n *Node) Exit {
	if n == nil {
		return Exit{}
	}
	return n.Exit
}

func exitString(x Exit) string {
	next := -1
	if x.Next != nil {
		next = x.Next.ID
	}
	return fmt.Sprintf("%v %#x %v next %d", x.Kind, x.Target, x.Via, next)
}

// faultString describes f without pointers: its node is named by its
// index in v's walk order.
func faultString(v *VLIW, f *Fault) string {
	if f == nil {
		return ""
	}
	node, k := -1, 0
	v.Walk(func(n *Node) {
		if n == f.Node {
			node = k
		}
		k++
	})
	return fmt.Sprintf("own %t node %d parcel %d storePC %#x resume %#x alias %t codemod %t: %v",
		f.VLIW == v, node, f.Parcel, f.StorePC, f.Resume, f.Alias, f.CodeMod, f.Cause)
}

// TestEveryPrimitiveShapes: everyPrimitive runs each primitive on its
// direct operand shape, on a general one and on a tagged source (li and
// lis have no source to tag), so the executor golden reaches every path
// of every primitive.
func TestEveryPrimitiveShapes(t *testing.T) {
	const direct, general, tagged = 1, 2, 4
	var seen [hPrim + 1]int
	e := &Executor{Mem: mem.New(2 << mem.ProtectShift)}
	primEntry(e)
	for _, v := range everyPrimitive() {
		entry := e.RF
		e.Exec(v)
		v.Walk(func(n *Node) {
			for i := range n.Ops {
				p := &n.Ops[i]
				if p.h == 0 {
					continue // not reached
				}
				op := p.h & hPrim
				if p.h&hDirect != 0 {
					seen[op] |= direct
				} else {
					seen[op] |= general
				}
				if readsTagged(&entry, p) {
					seen[op] |= tagged
				}
			}
		})
	}
	for op := PLI; op < numPrims; op++ {
		want := direct | general | tagged
		if op == PLI || op == PLIS {
			want = direct | general
		}
		if seen[op] != want {
			t.Errorf("%v: reached shapes %03b, want %03b (tagged, general, direct)", op, seen[op], want)
		}
	}
}

// readsTagged reports whether p reads a register that is tagged in rf.
func readsTagged(rf *RegFile, p *Parcel) bool {
	srcs := []RegRef{p.A, p.B}
	switch p.Op {
	case PStore, PCrand, PCror, PCrxor, PCrnand, PCrnor:
		srcs = append(srcs, p.D)
	case PAddE, PSubfE:
		srcs = append(srcs, p.CASrc)
	case PMfcr:
		for f := uint8(0); f < FirstNonArchCRF; f++ {
			srcs = append(srcs, CRF(f))
		}
	}
	for _, r := range srcs {
		if _, tag, _ := rf.Read(r); tag {
			return true
		}
	}
	return false
}
