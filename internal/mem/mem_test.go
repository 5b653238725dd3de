package mem

import (
	"bytes"
	"errors"
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

// FuzzScratchRollback drives random stores through a Scratch view — 1-,
// 2- and 4-byte writes plus LoadImage, overlapping, straddling protection
// units and running off the end — against a byte-slice model. The view
// must read its own writes; after Rollback the shared image must be
// byte-identical to where it started, and none of the base image's
// machinery (protected-store hook, fault hook, injected faults, write
// tracking, read-only bits) may have noticed anything.
func FuzzScratchRollback(f *testing.F) {
	// Each op is 7 bytes: kind, address (2, big-endian), value (4).
	f.Add([]byte{0, 0x0f, 0xfe, 1, 2, 3, 4})                               // word straddling units 0/1
	f.Add([]byte{0, 0x10, 0x00, 9, 9, 9, 9, 1, 0x10, 0x01, 7, 7, 7, 7})    // overlapping word then half
	f.Add([]byte{2, 0x2f, 0xff, 0xaa, 0, 0, 0, 0, 0x2f, 0xfd, 1, 1, 1, 1}) // last byte, then off the end
	f.Add([]byte{3, 0x1f, 0xfc, 5, 6, 7, 8, 4, 0, 0, 0, 0, 0, 0})          // LoadImage, mid-run Rollback
	f.Fuzz(func(t *testing.T, ops []byte) {
		const size = 3 << ProtectShift
		base := New(size)
		for i := range base.data {
			base.data[i] = byte(i * 7)
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
		orig := append([]byte(nil), base.data...)
		origRO := append([]bool(nil), base.ro...)

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
			switch ops[0] % 5 {
			case 0:
				n, err = 4, view.Write32(addr, v)
				val = val[:4]
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
				if !bytes.Equal(base.data, orig) {
					t.Fatal("mid-run Rollback did not restore the image")
				}
				copy(model, orig)
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
		if !bytes.Equal(base.data, orig) {
			t.Fatalf("image not restored by Rollback (first difference at %#x)", base.FirstDifference(&Memory{data: orig}))
		}
		for i := range origRO {
			if base.ro[i] != origRO[i] {
				t.Fatalf("read-only bit of unit %d changed", i)
			}
		}
		if units := base.TakeDirtyUnits(); len(units) != 0 {
			t.Fatalf("write tracking saw view stores: units %v", units)
		}
	})
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
