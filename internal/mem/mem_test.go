package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestReadWriteWidths(t *testing.T) {
	m := New(8192)
	if err := m.Write32(0x100, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x100); v != 0xdeadbeef {
		t.Fatalf("Read32 = %#x", v)
	}
	// Big-endian layout.
	if v, _ := m.Read8(0x100); v != 0xde {
		t.Fatalf("byte 0 = %#x, want 0xde (big-endian)", v)
	}
	if v, _ := m.Read16(0x102); v != 0xbeef {
		t.Fatalf("half at +2 = %#x", v)
	}
	if err := m.Write16(0x200, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read16(0x200); v != 0x1234 {
		t.Fatal("Write16 round trip")
	}
	if err := m.Write8(0x300, 0xab); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read8(0x300); v != 0xab {
		t.Fatal("Write8 round trip")
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New(1 << 16)
	f := func(addr uint16, v uint32) bool {
		a := uint32(addr) &^ 3
		if err := m.Write32(a, v); err != nil {
			return false
		}
		got, err := m.Read32(a)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOutOfBounds(t *testing.T) {
	m := New(4096)
	if _, err := m.Read32(4094); err == nil {
		t.Fatal("straddling read should fault")
	}
	if err := m.Write8(4096, 1); err == nil {
		t.Fatal("write past end should fault")
	}
	var f *Fault
	_, err := m.Read8(1 << 30)
	if !errors.As(err, &f) || f.Kind != FaultOutOfBounds || f.Write {
		t.Fatalf("expected out-of-bounds load fault, got %v", err)
	}
	if f.Error() == "" {
		t.Fatal("fault should describe itself")
	}
}

func TestProtectedStoreHook(t *testing.T) {
	m := New(16384)
	var hits []uint32
	m.OnProtectedStore = func(addr uint32, size int) { hits = append(hits, addr) }

	m.SetReadOnly(0x1000, true)
	if !m.ReadOnly(0x1fff) || m.ReadOnly(0x2000) {
		t.Fatal("read-only unit granularity wrong")
	}

	// Store into an unprotected page: no hook.
	if err := m.Write32(0x0, 1); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatal("hook fired for unprotected store")
	}

	// Store into the protected page: hook fires AND the store completes.
	if err := m.Write32(0x1004, 0x42); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != 0x1004 {
		t.Fatalf("hook hits = %v", hits)
	}
	if v, _ := m.Read32(0x1004); v != 0x42 {
		t.Fatal("protected store must still complete (paper §3.2)")
	}

	m.SetReadOnly(0x1000, false)
	if err := m.Write8(0x1008, 9); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatal("hook fired after protection cleared")
	}
}

// TestStraddlingStoreHook: a store whose bytes straddle two units fires
// the hook when the unit of either its first or its last byte is
// read-only.
func TestStraddlingStoreHook(t *testing.T) {
	m := New(3 << ProtectShift)
	var hits []uint32
	m.OnProtectedStore = func(addr uint32, size int) { hits = append(hits, addr) }
	m.SetReadOnly(0x1000, true)
	for _, st := range []struct {
		addr uint32
		size int
	}{{0x0ffe, 4}, {0x0fff, 2}, {0x1ffd, 4}, {0x0ffc, 4}, {0x0fff, 1}, {0x2000, 4}} {
		var err error
		switch st.size {
		case 1:
			err = m.Write8(st.addr, 0xff)
		case 2:
			err = m.Write16(st.addr, 0xffff)
		default:
			err = m.Write32(st.addr, 0xffffffff)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := st.addr+uint32(st.size)-1 >= 0x1000 && st.addr < 0x2000; m.StoreProtected(st.addr, st.size) != want {
			t.Fatalf("StoreProtected(%#x, %d) = %v", st.addr, st.size, !want)
		}
	}
	if want := []uint32{0x0ffe, 0x0fff, 0x1ffd}; fmt.Sprint(hits) != fmt.Sprint(want) {
		t.Fatalf("hook hits = %#x, want %#x", hits, want)
	}
}

// TestSparseUnits: loads and faulting stores allocate no unit, a store
// allocates only the units it lands in, and Bytes returns a private copy
// across existing and untouched units.
func TestSparseUnits(t *testing.T) {
	m := New(3 << ProtectShift)
	if v, err := m.Read32(0x10); err != nil || v != 0 {
		t.Fatalf("untouched load = %#x, %v", v, err)
	}
	m.FaultHook = func(uint32, int, bool) bool { return true }
	if err := m.Write32(0x10, 1); err == nil {
		t.Fatal("vetoed store succeeded")
	}
	m.FaultHook = nil
	if err := m.Write32(0x2ffe, 1); err == nil {
		t.Fatal("store past the end succeeded")
	}
	for i, u := range m.units {
		if u != nil {
			t.Fatalf("unit %d allocated without a completed store", i)
		}
	}
	_ = m.Write8(0x0fff, 0xaa)
	_ = m.Write8(0x2000, 0xbb)
	if m.units[0] == nil || m.units[1] != nil || m.units[2] == nil {
		t.Fatal("stores allocated the wrong units")
	}
	b := m.Bytes(0x0fff, 0x1002)
	if len(b) != 0x1002 || b[0] != 0xaa || b[0x1001] != 0xbb || !bytes.Equal(b[1:0x1001], make([]byte, 0x1000)) {
		t.Fatal("Bytes across an untouched unit")
	}
	b[0], b[1] = 1, 1
	if v, _ := m.Read8(0x0fff); v != 0xaa {
		t.Fatal("writing into Bytes' result changed memory")
	}
	if z := m.Bytes(0x1000, 4); !bytes.Equal(z, make([]byte, 4)) {
		t.Fatal("writing into Bytes' result changed an untouched unit's reads")
	}
}

func TestInjectedFault(t *testing.T) {
	m := New(4096)
	m.InjectFault(0x80, false)
	_, err := m.Read32(0x80)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultInjected {
		t.Fatalf("expected injected fault, got %v", err)
	}
	if err := m.Write32(0x80, 1); err == nil {
		t.Fatal("store to injected address should fault")
	}
	m.InjectFault(0x80, true)
	if _, err := m.Read32(0x80); err != nil {
		t.Fatalf("after clearing injection: %v", err)
	}
}

func TestCloneAndCompare(t *testing.T) {
	m := New(4096)
	_ = m.Write32(0x10, 0xcafe)
	c := m.Clone()
	if !m.EqualData(c) || m.FirstDifference(c) != -1 {
		t.Fatal("clone should equal original")
	}
	_ = c.Write8(0x20, 1)
	if m.EqualData(c) {
		t.Fatal("clone should be independent")
	}
	if d := m.FirstDifference(c); d != 0x20 {
		t.Fatalf("FirstDifference = %#x, want 0x20", d)
	}
}

func TestLoadImageBypassesProtection(t *testing.T) {
	m := New(8192)
	var hooked bool
	m.OnProtectedStore = func(uint32, int) { hooked = true }
	m.SetReadOnly(0, true)
	if err := m.LoadImage(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if hooked {
		t.Fatal("LoadImage must not trigger the code-modification hook")
	}
	if v, _ := m.Read32(0); v != 0x01020304 {
		t.Fatal("LoadImage bytes wrong")
	}
	if err := m.LoadImage(8190, []byte{1, 2, 3}); err == nil {
		t.Fatal("LoadImage past end should fail")
	}
	if b := m.Bytes(0, 4); len(b) != 4 || b[0] != 1 {
		t.Fatal("Bytes accessor")
	}
	if b := m.Bytes(8190, 4); b != nil {
		t.Fatal("Bytes out of range should be nil")
	}
}

func TestSizeRounding(t *testing.T) {
	m := New(5000) // rounds up to two 4K units
	if m.Size() != 8192 {
		t.Fatalf("Size = %d, want 8192", m.Size())
	}
}

// FuzzScratchRollback is the model fuzzer of the sparse image, written
// against the public API with a flat byte slice as the reference. layout
// picks which of the four units the base image writes before the run;
// the others stay untouched (nil) and must read as zeros. The ops then
// drive a Scratch view: 1-, 2- and 4-byte stores and loads, LoadImage
// spans of up to three units, Rollback, and Clone with EqualData,
// FirstDifference and UnitDiff against the model, overlapping, straddling
// units and running off the end. The view must agree with the model at
// every step; after Rollback the shared image must be byte-identical to
// where it started, and none of the base image's machinery
// (protected-store hook, fault hook, injected faults, write tracking,
// read-only bits) may have noticed anything.
func FuzzScratchRollback(f *testing.F) {
	// Each op is 7 bytes: kind, address (2, big-endian), value (4).
	f.Add(byte(0xf), []byte{0, 0x0f, 0xfe, 1, 2, 3, 4})                               // word straddling units 0/1
	f.Add(byte(0xf), []byte{0, 0x10, 0x00, 9, 9, 9, 9, 1, 0x10, 0x01, 7, 7, 7, 7})    // overlapping word then half
	f.Add(byte(0xf), []byte{2, 0x3f, 0xff, 0xaa, 0, 0, 0, 0, 0x3f, 0xfd, 1, 1, 1, 1}) // last byte, then off the end
	f.Add(byte(0xf), []byte{3, 0x1f, 0xfc, 5, 6, 7, 8, 4, 0, 0, 0, 0, 0, 0})          // LoadImage, mid-run Rollback
	// Untouched units between written ones: a long LoadImage across them,
	// loads from them, and a clone compared while they are still nil.
	f.Add(byte(0b0101), []byte{9, 0, 0, 0, 0, 0, 0, 8, 0x0f, 0x00, 0x20, 0x00, 0, 0x11, 5, 0x18, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0})
	f.Add(byte(0b1001), []byte{7, 0x1f, 0xff, 0, 0, 0, 0, 0, 0x2f, 0xfe, 0, 0, 0, 0, 9, 0x2f, 0xfe, 0, 0, 0, 0})
	f.Add(byte(0b0010), []byte{8, 0x00, 0x10, 0x2f, 0xff, 0, 0, 4, 0, 0, 0, 0, 0, 0, 9, 0x00, 0x10, 0, 0, 0, 0})
	// Accesses at offsets 0xffd-0xfff of unit 0, for each pairing of nil
	// and existing units on either side of the boundary.
	for layout := byte(0); layout < 4; layout++ {
		for off := byte(0xfd); off != 0; off++ {
			a := []byte{0x0f, off}
			var ops []byte
			for _, kind := range []byte{5, 6, 7, 0, 5, 1, 6, 2, 7, 9, 4, 5} {
				ops = append(ops, kind, a[0], a[1], 0xc0|off, 0x3c, off, 0x63)
			}
			f.Add(layout, ops)
		}
	}
	f.Fuzz(func(t *testing.T, layout byte, ops []byte) {
		const size, maxOps = 4 << ProtectShift, 256
		base := New(size)
		orig := make([]byte, size)
		for u := uint32(0); u < 4; u++ {
			if layout&(1<<u) == 0 {
				continue
			}
			for i := u << ProtectShift; i < (u+1)<<ProtectShift; i++ {
				orig[i] = byte(i * 7)
			}
			if err := base.LoadImage(u<<ProtectShift, orig[u<<ProtectShift:(u+1)<<ProtectShift]); err != nil {
				t.Fatal(err)
			}
		}
		base.SetReadOnly(0x1000, true)
		base.InjectFault(0x1000, false)
		base.TrackWrites(true)
		base.OnProtectedStore = func(addr uint32, size int) {
			t.Fatalf("protected-store hook fired through the view at %#x", addr)
		}
		base.FaultHook = func(addr uint32, size int, write bool) bool {
			t.Fatalf("fault hook consulted through the view at %#x", addr)
			return true
		}

		if len(ops) > 7*maxOps {
			ops = ops[:7*maxOps] // bound one execution's time
		}
		view := base.Scratch()
		model := append([]byte(nil), orig...)
		for ; len(ops) >= 7; ops = ops[7:] {
			addr := uint32(ops[1])<<8 | uint32(ops[2])
			if addr >= size {
				addr %= size + 4 // keep a few out-of-bounds addresses
			}
			val := []byte{ops[3], ops[4], ops[5], ops[6]}
			v := uint32(val[0])<<24 | uint32(val[1])<<16 | uint32(val[2])<<8 | uint32(val[3])
			var n uint32
			var err error
			switch ops[0] % 10 {
			case 0:
				n, err = 4, view.Write32(addr, v)
			case 1:
				n, err = 2, view.Write16(addr, v)
				val = val[2:]
			case 2:
				n, err = 1, view.Write8(addr, v)
				val = val[3:]
			case 3:
				n, err = 4, view.LoadImage(addr, val)
			case 4:
				view.Rollback()
				if !bytes.Equal(base.Bytes(0, size), orig) {
					t.Fatal("mid-run Rollback did not restore the image")
				}
				copy(model, orig)
				continue
			case 5, 6, 7:
				checkLoad(t, view, model, addr, 4>>(ops[0]%10-5))
				continue
			case 8:
				// A LoadImage span of up to three units, filled with a
				// ramp starting at the value's third byte.
				n = (uint32(val[0])<<8 | uint32(val[1])) % (3 << ProtectShift)
				val = make([]byte, n)
				for i := range val {
					val[i] = ops[5] + byte(i)
				}
				err = view.LoadImage(addr, val)
			case 9:
				checkClone(t, view, model, addr)
				continue
			}
			if uint64(addr)+uint64(n) > size {
				if err == nil {
					t.Fatalf("store of %d bytes at %#x past the end succeeded", n, addr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("store of %d bytes at %#x: %v", n, addr, err)
			}
			copy(model[addr:], val)
			if got := view.Bytes(addr, n); !bytes.Equal(got, val) {
				t.Fatalf("view reads %x at %#x after storing %x", got, addr, val)
			}
		}
		if !bytes.Equal(view.Bytes(0, size), model) {
			t.Fatal("view image differs from the model")
		}
		view.Rollback()
		if got := base.Bytes(0, size); !bytes.Equal(got, orig) {
			for i := range got {
				if got[i] != orig[i] {
					t.Fatalf("image not restored by Rollback (first difference at %#x)", i)
				}
			}
		}
		for u := uint32(0); u < 4; u++ {
			if base.ReadOnly(u<<ProtectShift) != (u == 1) {
				t.Fatalf("read-only bit of unit %d changed", u)
			}
		}
		if units := base.AppendDirtyUnits(nil); len(units) != 0 {
			t.Fatalf("write tracking saw view stores: units %v", units)
		}
	})
}

// checkLoad loads n bytes at addr through m and checks the value against
// the model, or that a load past the end faults.
func checkLoad(t *testing.T, m *Memory, model []byte, addr uint32, n int) {
	t.Helper()
	var got uint32
	var err error
	switch n {
	case 4:
		got, err = m.Read32(addr)
	case 2:
		got, err = m.Read16(addr)
	default:
		got, err = m.Read8(addr)
	}
	if int(addr)+n > len(model) {
		if err == nil {
			t.Fatalf("load of %d bytes at %#x past the end succeeded", n, addr)
		}
		return
	}
	if err != nil {
		t.Fatalf("load of %d bytes at %#x: %v", n, addr, err)
	}
	var want uint32
	for _, b := range model[addr : int(addr)+n] {
		want = want<<8 | uint32(b)
	}
	if got != want {
		t.Fatalf("load of %d bytes at %#x = %#x, model holds %#x", n, addr, got, want)
	}
}

// checkClone clones m and compares it with m, with a dense and a sparse
// rebuild of the model, and with the clone after a one-byte change at
// addr: EqualData, FirstDifference and UnitDiff must agree with the
// model, and the clone must be independent of m.
func checkClone(t *testing.T, m *Memory, model []byte, addr uint32) {
	t.Helper()
	dense, sparse := New(uint32(len(model))), New(uint32(len(model)))
	if err := dense.LoadImage(0, model); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < len(model); a += 1 << ProtectShift {
		u := model[a : a+1<<ProtectShift]
		if !bytes.Equal(u, make([]byte, len(u))) {
			_ = sparse.LoadImage(uint32(a), u)
		}
	}
	c := m.Clone()
	for _, o := range []*Memory{c, dense, sparse} {
		if !m.EqualData(o) || !o.EqualData(m) || m.FirstDifference(o) != -1 {
			t.Fatalf("image differs from its copy at %#x", m.FirstDifference(o))
		}
		for u := uint32(0); u <= uint32(len(model))>>ProtectShift; u++ {
			if d := m.UnitDiff(o, u); d != -1 {
				t.Fatalf("UnitDiff(%d) = %#x on identical images", u, d)
			}
		}
	}
	if int(addr) >= len(model) {
		return
	}
	if err := c.Write8(addr, uint32(model[addr]^0x5a)); err != nil {
		t.Fatal(err)
	}
	if m.EqualData(c) || c.EqualData(m) {
		t.Fatalf("EqualData missed a change at %#x", addr)
	}
	if d, e := m.FirstDifference(c), c.FirstDifference(m); d != int64(addr) || e != int64(addr) {
		t.Fatalf("FirstDifference = %#x and %#x, want %#x", d, e, addr)
	}
	if d := m.UnitDiff(c, addr>>ProtectShift); d != int(addr&(1<<ProtectShift-1)) {
		t.Fatalf("UnitDiff = %#x, want %#x", d, addr&(1<<ProtectShift-1))
	}
	if v, _ := m.Read8(addr); byte(v) != model[addr] {
		t.Fatal("a store into the clone changed the original")
	}
}

func TestScratchRollbackRequiresView(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback on a plain Memory should panic")
		}
	}()
	New(4096).Rollback()
}

func TestScratchSetReadOnlyIsPrivate(t *testing.T) {
	m := New(8192)
	v := m.Scratch()
	v.SetReadOnly(0x1000, true)
	if m.ReadOnly(0x1000) {
		t.Fatal("SetReadOnly on a Scratch view changed the base image")
	}
	if !v.ReadOnly(0x1000) {
		t.Fatal("SetReadOnly on a Scratch view had no effect on the view")
	}
}
