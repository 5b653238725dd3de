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
// The package also supports injecting data storage faults at chosen
// addresses, which drives the precise-exception experiments.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// ProtectShift is log2 of the protection unit size (4K, as the paper
// suggests for PowerPC).
const ProtectShift = 12

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
	data []byte
	ro   []bool // read-only bit per protection unit

	// OnProtectedStore, if non-nil, is called after a store writes into a
	// unit whose read-only bit is set. addr is the store address.
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

// New allocates size bytes of zeroed physical memory. size is rounded up to
// a whole protection unit.
func New(size uint32) *Memory {
	units := (size + (1 << ProtectShift) - 1) >> ProtectShift
	return &Memory{
		data: make([]byte, units<<ProtectShift),
		ro:   make([]bool, units),
	}
}

// Size returns the size of physical memory in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Clone returns an independent copy of the memory image (hooks and
// injected faults are not copied). Used to compare final memory images of
// the interpreter and the VMM.
func (m *Memory) Clone() *Memory {
	n := &Memory{
		data: append([]byte(nil), m.data...),
		ro:   append([]bool(nil), m.ro...),
	}
	return n
}

// Scratch returns a throwaway view of the memory image for interpreting
// ahead: it behaves as Clone does (no OnProtectedStore, no FaultHook, no
// injected faults, no write tracking, and SetReadOnly on the view leaves
// m's read-only bits alone), but it shares m's bytes instead of copying
// them. Every store through the view logs the bytes it overwrites, and
// Rollback restores them, so the cost is proportional to the stores made
// rather than to the size of the image.
//
// Until Rollback, m's bytes include the view's stores. The caller must
// therefore ensure nothing else reads m (or stores into it) while the view
// is live, and should defer Rollback so a panic also restores the image.
func (m *Memory) Scratch() *Memory {
	return &Memory{
		data: m.data,
		ro:   append([]bool(nil), m.ro...),
		undo: &undoLog{},
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
		copy(m.data[r.addr:r.addr+r.n], u.old[end:])
	}
	u.recs = u.recs[:0]
	u.old = u.old[:0]
}

// logUndo saves the n bytes at addr before a store through a Scratch view
// overwrites them. The range has already been bounds-checked.
func (m *Memory) logUndo(addr, n uint32) {
	u := m.undo
	u.recs = append(u.recs, undoRec{addr, n})
	u.old = append(u.old, m.data[addr:addr+n]...)
}

// EqualData reports whether the two memory images hold identical bytes.
func (m *Memory) EqualData(o *Memory) bool {
	if len(m.data) != len(o.data) {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// FirstDifference returns the lowest address at which the two images
// differ, or -1 if they are identical.
func (m *Memory) FirstDifference(o *Memory) int64 {
	n := len(m.data)
	if len(o.data) < n {
		n = len(o.data)
	}
	for i := 0; i < n; i++ {
		if m.data[i] != o.data[i] {
			return int64(i)
		}
	}
	if len(m.data) != len(o.data) {
		return int64(n)
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
	if uint64(addr)+uint64(size) > uint64(len(m.data)) {
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

func (m *Memory) noteStore(addr uint32, size int) {
	if m.trackWrites {
		m.dirtyUnits[addr>>ProtectShift] = struct{}{}
		if size > 1 {
			m.dirtyUnits[(addr+uint32(size)-1)>>ProtectShift] = struct{}{}
		}
	}
	if m.OnProtectedStore != nil && m.ro[addr>>ProtectShift] {
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

// TakeDirtyUnits returns the protection units written since the last call
// (ascending) and clears the record.
func (m *Memory) TakeDirtyUnits() []uint32 {
	if len(m.dirtyUnits) == 0 {
		return nil
	}
	units := make([]uint32, 0, len(m.dirtyUnits))
	for u := range m.dirtyUnits {
		units = append(units, u)
	}
	for k := range m.dirtyUnits {
		delete(m.dirtyUnits, k)
	}
	sort.Slice(units, func(i, j int) bool { return units[i] < units[j] })
	return units
}

// UnitBytes returns the raw contents of one protection unit (nil if the
// unit is out of range).
func (m *Memory) UnitBytes(unit uint32) []byte {
	return m.Bytes(unit<<ProtectShift, 1<<ProtectShift)
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (uint32, error) {
	if err := m.check(addr, 1, false); err != nil {
		return 0, err
	}
	return uint32(m.data[addr]), nil
}

// Read16 loads a big-endian halfword.
func (m *Memory) Read16(addr uint32) (uint32, error) {
	if err := m.check(addr, 2, false); err != nil {
		return 0, err
	}
	return uint32(binary.BigEndian.Uint16(m.data[addr:])), nil
}

// Read32 loads a big-endian word.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, false); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(m.data[addr:]), nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v uint32) error {
	if err := m.check(addr, 1, true); err != nil {
		return err
	}
	if m.undo != nil {
		m.logUndo(addr, 1)
	}
	m.data[addr] = byte(v)
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
	binary.BigEndian.PutUint16(m.data[addr:], uint16(v))
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
	binary.BigEndian.PutUint32(m.data[addr:], v)
	m.noteStore(addr, 4)
	return nil
}

// LoadImage copies raw bytes into memory at addr without triggering
// protection hooks (used by loaders, not by emulated stores).
func (m *Memory) LoadImage(addr uint32, b []byte) error {
	if uint64(addr)+uint64(len(b)) > uint64(len(m.data)) {
		return &Fault{Addr: addr, Write: true, Kind: FaultOutOfBounds}
	}
	if m.undo != nil {
		m.logUndo(addr, uint32(len(b)))
	}
	copy(m.data[addr:], b)
	return nil
}

// Bytes returns the raw byte at addr for inspection (0 if out of range).
func (m *Memory) Bytes(addr, n uint32) []byte {
	if uint64(addr)+uint64(n) > uint64(len(m.data)) {
		return nil
	}
	return m.data[addr : addr+n]
}
