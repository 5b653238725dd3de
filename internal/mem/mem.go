// Package mem implements the base architecture's physical memory: the low
// section of the VLIW's virtual address space (Figure 3.1 of the paper).
//
// Every 4K "unit" of physical memory carries a read-only bit that is not
// architected in the base architecture (§3.2). The VMM sets the bit when it
// translates code on the page; any store into a protected unit invokes the
// code-modification hook so the VMM can invalidate the translation. The
// store itself still completes — the paper requires the machine state at
// the interrupt to correspond to the point just after the modifying
// instruction.
//
// Memory is sparse at the same granularity: a unit's bytes are allocated
// when a store or LoadImage first writes into it, and an untouched unit
// reads as zeros. A job's image therefore costs what the guest touches,
// not the configured memory size.
//
// The package also supports injecting data storage faults at chosen
// addresses, which drives the precise-exception experiments.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// ProtectShift is log2 of the protection unit size (4K, as the paper
// suggests for PowerPC).
const ProtectShift = 12

const (
	unitSize = 1 << ProtectShift
	unitMask = unitSize - 1
)

// unit holds one protection unit's bytes.
type unit = [unitSize]byte

// Fault describes a storage exception raised by a memory access.
type Fault struct {
	Addr  uint32
	Write bool
	Kind  FaultKind
}

// FaultKind classifies storage exceptions.
type FaultKind uint8

const (
	// FaultOutOfBounds means the physical address does not exist.
	FaultOutOfBounds FaultKind = iota
	// FaultInjected means a test harness asked for a fault at this address.
	FaultInjected
	// FaultUnmapped means address translation found no valid page.
	FaultUnmapped
)

func (f *Fault) Error() string {
	op := "load"
	if f.Write {
		op = "store"
	}
	kind := [...]string{"out of bounds", "injected", "unmapped"}[f.Kind]
	return fmt.Sprintf("mem: %s fault at %#x (%s)", op, f.Addr, kind)
}

// Memory is the base architecture's physical memory image.
//
// The zero value is unusable; call New.
type Memory struct {
	units []*unit // nil until first written; reads as zeros
	ro    []bool  // read-only bit per protection unit

	// OnProtectedStore, if non-nil, is called after a store writes into a
	// unit whose read-only bit is set (StoreProtected: either end of a
	// store straddling two units). addr is the store address.
	OnProtectedStore func(addr uint32, size int)

	// FaultHook, if non-nil, may veto any access before it is performed:
	// returning true raises FaultInjected at that address. It is the
	// memory-level injection point of the chaos harness; InjectFault is
	// the address-keyed special case kept for the exception experiments.
	FaultHook func(addr uint32, size int, write bool) bool

	injected map[uint32]bool

	trackWrites bool
	dirtyUnits  map[uint32]struct{}

	undo *undoLog // non-nil only on a Scratch view
}

// undoLog records the bytes each store through a Scratch view overwrote,
// oldest first: recs[i] covers the next recs[i].n bytes of old.
type undoLog struct {
	recs []undoRec
	old  []byte
}

type undoRec struct {
	addr, n uint32
}

// New returns size bytes of zeroed physical memory. size is rounded up to
// a whole protection unit. No unit's bytes are allocated until written.
func New(size uint32) *Memory {
	units := (size + unitSize - 1) >> ProtectShift
	return &Memory{
		units: make([]*unit, units),
		ro:    make([]bool, units),
	}
}

// Size returns the size of physical memory in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.units)) << ProtectShift }

// limit is Size, widened so bounds checks cannot overflow.
func (m *Memory) limit() uint64 { return uint64(len(m.units)) << ProtectShift }

// Clone returns an independent copy of the memory image (hooks and
// injected faults are not copied). Only the units that exist are copied.
// Used to compare final memory images of the interpreter and the VMM.
func (m *Memory) Clone() *Memory {
	n := &Memory{
		units: make([]*unit, len(m.units)),
		ro:    append([]bool(nil), m.ro...),
	}
	for i, u := range m.units {
		if u != nil {
			c := *u
			n.units[i] = &c
		}
	}
	return n
}

// Scratch returns a throwaway view of the memory image for interpreting
// ahead: it behaves as Clone does (no OnProtectedStore, no FaultHook, no
// injected faults, no write tracking, and SetReadOnly on the view leaves
// m's read-only bits alone), but it shares m's unit table instead of
// copying it. Every store through the view logs the bytes it overwrites,
// and Rollback restores them, so the cost is proportional to the stores
// made rather than to the size of the image. A store into a unit that was
// never written allocates the unit in the shared table and logs zeros, so
// after Rollback the unit exists and reads as zeros, as it did before.
//
// Until Rollback, m's bytes include the view's stores. The caller must
// therefore ensure nothing else reads m (or stores into it) while the view
// is live, and should defer Rollback so a panic also restores the image.
func (m *Memory) Scratch() *Memory {
	return &Memory{
		units: m.units,
		ro:    append([]bool(nil), m.ro...),
		undo:  &undoLog{},
	}
}

// Rollback undoes every store made through a Scratch view since it was
// created (or since the last Rollback), newest first, leaving the shared
// image byte-identical to what the view started from. The view stays
// usable. It panics if m is not a Scratch view.
func (m *Memory) Rollback() {
	u := m.undo
	if u == nil {
		panic("mem: Rollback on a memory that is not a Scratch view")
	}
	end := len(u.old)
	for i := len(u.recs) - 1; i >= 0; i-- {
		r := u.recs[i]
		end -= int(r.n)
		m.put(r.addr, u.old[end:end+int(r.n)])
	}
	u.recs = u.recs[:0]
	u.old = u.old[:0]
}

// logUndo saves the n bytes at addr before a store through a Scratch view
// overwrites them. The range has already been bounds-checked.
func (m *Memory) logUndo(addr, n uint32) {
	u := m.undo
	u.recs = append(u.recs, undoRec{addr, n})
	u.old = m.appendBytes(u.old, addr, n)
}

// EqualData reports whether the two memory images hold identical bytes.
func (m *Memory) EqualData(o *Memory) bool {
	if len(m.units) != len(o.units) {
		return false
	}
	for i := range m.units {
		if diffUnits(m.units[i], o.units[i]) >= 0 {
			return false
		}
	}
	return true
}

// FirstDifference returns the lowest address at which the two images
// differ, or -1 if they are identical.
func (m *Memory) FirstDifference(o *Memory) int64 {
	n := min(len(m.units), len(o.units))
	for i := 0; i < n; i++ {
		if d := diffUnits(m.units[i], o.units[i]); d >= 0 {
			return int64(i)<<ProtectShift + int64(d)
		}
	}
	if len(m.units) != len(o.units) {
		return int64(n) << ProtectShift
	}
	return -1
}

// UnitDiff compares protection unit u of m and o in place and returns the
// offset within the unit of the first byte that differs, or -1 if the
// unit's bytes are identical. A unit past the end of an image reads as
// zeros.
func (m *Memory) UnitDiff(o *Memory, u uint32) int {
	return diffUnits(m.unitAt(u), o.unitAt(u))
}

func (m *Memory) unitAt(u uint32) *unit {
	if int(u) < len(m.units) {
		return m.units[u]
	}
	return nil
}

// diffUnits returns the offset of the first byte at which a and b differ,
// or -1. A nil unit reads as zeros.
func diffUnits(a, b *unit) int {
	if a == b {
		return -1
	}
	var zero unit
	if a == nil {
		a = &zero
	}
	if b == nil {
		b = &zero
	}
	if *a == *b {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// SetReadOnly sets or clears the (non-architected) read-only bit of the
// protection unit containing addr.
func (m *Memory) SetReadOnly(addr uint32, ro bool) {
	u := addr >> ProtectShift
	if int(u) < len(m.ro) {
		m.ro[u] = ro
	}
}

// ReadOnly reports the read-only bit of the unit containing addr.
func (m *Memory) ReadOnly(addr uint32) bool {
	u := addr >> ProtectShift
	return int(u) < len(m.ro) && m.ro[u]
}

// InjectFault arranges for the next accesses at addr to raise
// FaultInjected. Pass clear=true to remove the injection.
func (m *Memory) InjectFault(addr uint32, clear bool) {
	if m.injected == nil {
		m.injected = make(map[uint32]bool)
	}
	if clear {
		delete(m.injected, addr)
	} else {
		m.injected[addr] = true
	}
}

func (m *Memory) check(addr uint32, size int, write bool) error {
	if uint64(addr)+uint64(size) > m.limit() {
		return &Fault{Addr: addr, Write: write, Kind: FaultOutOfBounds}
	}
	if m.injected != nil && m.injected[addr] {
		return &Fault{Addr: addr, Write: write, Kind: FaultInjected}
	}
	if m.FaultHook != nil && m.FaultHook(addr, size, write) {
		return &Fault{Addr: addr, Write: write, Kind: FaultInjected}
	}
	return nil
}

// CheckWrite reports the fault a store of the given size at addr would
// raise, without performing it. The VLIW executor validates every buffered
// store of a tree instruction before applying any of them, so a faulting
// VLIW leaves memory untouched and can be precisely rolled back.
func (m *Memory) CheckWrite(addr uint32, size int) error {
	return m.check(addr, size, true)
}

// StoreProtected reports whether a store of size bytes at addr writes into
// a read-only unit. A store can straddle two units, so the units of its
// first and last bytes both count.
func (m *Memory) StoreProtected(addr uint32, size int) bool {
	return m.ReadOnly(addr) || m.ReadOnly(addr+uint32(size)-1)
}

func (m *Memory) noteStore(addr uint32, size int) {
	if m.trackWrites {
		m.dirtyUnits[addr>>ProtectShift] = struct{}{}
		if size > 1 {
			m.dirtyUnits[(addr+uint32(size)-1)>>ProtectShift] = struct{}{}
		}
	}
	if m.OnProtectedStore != nil && m.StoreProtected(addr, size) {
		m.OnProtectedStore(addr, size)
	}
}

// TrackWrites enables (or disables) recording of the protection units
// touched by emulated stores, so a differential checker can compare only
// the memory that could have changed since its last synchronization point
// instead of hashing the whole image.
func (m *Memory) TrackWrites(on bool) {
	m.trackWrites = on
	if on && m.dirtyUnits == nil {
		m.dirtyUnits = make(map[uint32]struct{})
	}
}

// AppendDirtyUnits appends the protection units written since the last
// call to dst, in ascending order, and clears the record. A checker that
// passes the same buffer back each time compares without allocating.
func (m *Memory) AppendDirtyUnits(dst []uint32) []uint32 {
	n := len(dst)
	for u := range m.dirtyUnits {
		dst = append(dst, u)
	}
	clear(m.dirtyUnits)
	slices.Sort(dst[n:])
	return dst
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (uint32, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	if u := m.units[addr>>ProtectShift]; u != nil {
		return uint32(u[addr&unitMask]), nil
	}
	return 0, nil
}

// Read16 loads a big-endian halfword.
func (m *Memory) Read16(addr uint32) (uint32, error) {
	if err := m.check(addr, 2, false); err != nil {
		return 0, err
	}
	if off := addr & unitMask; off <= unitSize-2 {
		if u := m.units[addr>>ProtectShift]; u != nil {
			return uint32(binary.BigEndian.Uint16(u[off:])), nil
		}
		return 0, nil
	}
	var b [2]byte
	m.appendBytes(b[:0], addr, 2)
	return uint32(binary.BigEndian.Uint16(b[:])), nil
}

// Read32 loads a big-endian word.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	if off := addr & unitMask; off <= unitSize-4 {
		if u := m.units[addr>>ProtectShift]; u != nil {
			return binary.BigEndian.Uint32(u[off:]), nil
		}
		return 0, nil
	}
	var b [4]byte
	m.appendBytes(b[:0], addr, 4)
	return binary.BigEndian.Uint32(b[:]), nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v uint32) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	if m.undo != nil {
		m.logUndo(addr, 1)
	}
	m.unitFor(addr)[addr&unitMask] = byte(v)
	m.noteStore(addr, 1)
	return nil
}

// Write16 stores a big-endian halfword.
func (m *Memory) Write16(addr uint32, v uint32) error {
	if err := m.check(addr, 2, true); err != nil {
		return err
	}
	if m.undo != nil {
		m.logUndo(addr, 2)
	}
	if off := addr & unitMask; off <= unitSize-2 {
		binary.BigEndian.PutUint16(m.unitFor(addr)[off:], uint16(v))
	} else {
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], uint16(v))
		m.put(addr, b[:])
	}
	m.noteStore(addr, 2)
	return nil
}

// Write32 stores a big-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	if err := m.check(addr, 4, true); err != nil {
		return err
	}
	if m.undo != nil {
		m.logUndo(addr, 4)
	}
	if off := addr & unitMask; off <= unitSize-4 {
		binary.BigEndian.PutUint32(m.unitFor(addr)[off:], v)
	} else {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		m.put(addr, b[:])
	}
	m.noteStore(addr, 4)
	return nil
}

// LoadImage copies raw bytes into memory at addr without triggering
// protection hooks (used by loaders, not by emulated stores).
func (m *Memory) LoadImage(addr uint32, b []byte) error {
	if uint64(addr)+uint64(len(b)) > m.limit() {
		return &Fault{Addr: addr, Write: true, Kind: FaultOutOfBounds}
	}
	if m.undo != nil {
		m.logUndo(addr, uint32(len(b)))
	}
	m.put(addr, b)
	return nil
}

// Bytes returns a copy of the n bytes at addr for inspection (nil if the
// span runs past the end of memory). The span may cross units; untouched
// units read as zeros.
func (m *Memory) Bytes(addr, n uint32) []byte {
	if uint64(addr)+uint64(n) > m.limit() {
		return nil
	}
	return m.appendBytes(make([]byte, 0, n), addr, n)
}

// unitFor returns the unit holding addr, allocating it on first write.
func (m *Memory) unitFor(addr uint32) *unit {
	u := m.units[addr>>ProtectShift]
	if u == nil {
		u = new(unit)
		m.units[addr>>ProtectShift] = u
	}
	return u
}

// put copies b into memory at addr, across units, allocating the units it
// writes into. The range has already been bounds-checked.
func (m *Memory) put(addr uint32, b []byte) {
	for len(b) > 0 {
		k := copy(m.unitFor(addr)[addr&unitMask:], b)
		addr += uint32(k)
		b = b[k:]
	}
}

// appendBytes appends the n bytes at addr to dst, across units; untouched
// units read as zeros. The range has already been bounds-checked.
func (m *Memory) appendBytes(dst []byte, addr, n uint32) []byte {
	for n > 0 {
		off := addr & unitMask
		k := min(n, unitSize-off)
		if u := m.units[addr>>ProtectShift]; u != nil {
			dst = append(dst, u[off:off+k]...)
		} else {
			dst = append(dst, make([]byte, k)...)
		}
		addr += k
		n -= k
	}
	return dst
}
