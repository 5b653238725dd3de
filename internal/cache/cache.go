// Package cache simulates the memory hierarchy used for the paper's
// finite-cache experiments (Tables 5.3-5.5, Figure 5.2): set-associative
// LRU caches with configurable line size, capacity and latency, composed
// into the two hierarchies the paper measures.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name    string
	Size    uint32 // bytes
	Assoc   int    // ways; 1 = direct mapped
	Line    uint32 // bytes per line
	Latency uint64 // cycles charged on a hit at this level
}

// Cache is one set-associative LRU cache level.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint32
	clock    uint64 // LRU stamp source, per cache so parallel runs share nothing

	Accesses uint64
	Misses   uint64
}

type line struct {
	tag   uint32
	valid bool
	stamp uint64
}

// New builds a cache from its configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.Line == 0 || cfg.Line&(cfg.Line-1) != 0 {
		return nil, fmt.Errorf("cache %s: line size %d not a power of two", cfg.Name, cfg.Line)
	}
	if cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache %s: associativity %d", cfg.Name, cfg.Assoc)
	}
	nLines := cfg.Size / cfg.Line
	nSets := nLines / uint32(cfg.Assoc)
	if nSets == 0 || nSets&(nSets-1) != 0 {
		return nil, fmt.Errorf("cache %s: %d sets (size/line/assoc mismatch)", cfg.Name, nSets)
	}
	c := &Cache{cfg: cfg, sets: make([][]line, nSets)}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
	}
	for s := nSets; s > 1; s >>= 1 {
		c.setShift++
	}
	c.setMask = nSets - 1
	return c, nil
}

// Access looks addr up, filling on miss. It returns true on a hit.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	c.clock++
	tag := addr / c.cfg.Line
	set := c.sets[tag&c.setMask]
	tag >>= c.setShift

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].stamp = c.clock
			return true
		}
	}
	c.Misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	set[victim] = line{tag: tag, valid: true, stamp: c.clock}
	return false
}

// AccessRange touches every line an [addr, addr+size) access covers,
// returning the number of line misses.
func (c *Cache) AccessRange(addr uint32, size int) int {
	misses := 0
	first := addr / c.cfg.Line
	last := (addr + uint32(size) - 1) / c.cfg.Line
	for l := first; l <= last; l++ {
		if !c.Access(l * c.cfg.Line) {
			misses++
		}
	}
	return misses
}

// MissRate returns misses per access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Config returns the level's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Hierarchy chains cache levels in front of main memory. A data access
// probes successive levels until it hits; the returned stall is the
// latency of the hitting level (main memory if all miss). Instruction
// fetches use the ILevels chain, sharing any levels present in both.
type Hierarchy struct {
	DLevels []*Cache
	ILevels []*Cache
	MemLat  uint64

	// Per-stream statistics for Tables 5.3-5.4.
	LoadMisses  uint64 // first-level data misses on loads
	StoreMisses uint64
	FetchMisses uint64 // first-level instruction misses
}

// DataAccess simulates a load or store and returns stall cycles.
func (h *Hierarchy) DataAccess(addr uint32, size int, write bool) uint64 {
	for i, c := range h.DLevels {
		miss := c.AccessRange(addr, size) > 0
		if !miss {
			return c.cfg.Latency
		}
		if i == 0 {
			if write {
				h.StoreMisses++
			} else {
				h.LoadMisses++
			}
		}
	}
	return h.MemLat
}

// Fetch simulates an instruction fetch of size bytes at addr.
func (h *Hierarchy) Fetch(addr uint32, size int) uint64 {
	for i, c := range h.ILevels {
		miss := c.AccessRange(addr, size) > 0
		if !miss {
			return c.cfg.Latency
		}
		if i == 0 {
			h.FetchMisses++
		}
	}
	return h.MemLat
}

// PaperHierarchyA is the configuration of §5 used with the 24-issue
// machine: 64K L1D (4-way), 64K L1I (direct mapped), shared 4M L2
// (4-way), 256-byte lines throughout, 88-cycle memory.
func PaperHierarchyA() (*Hierarchy, error) {
	l1d, err := New(Config{Name: "L0 DCache", Size: 64 << 10, Assoc: 4, Line: 256, Latency: 0})
	if err != nil {
		return nil, err
	}
	l1i, err := New(Config{Name: "L0 ICache", Size: 64 << 10, Assoc: 1, Line: 256, Latency: 0})
	if err != nil {
		return nil, err
	}
	l2, err := New(Config{Name: "L1 JCache", Size: 4 << 20, Assoc: 4, Line: 256, Latency: 12})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		DLevels: []*Cache{l1d, l2},
		ILevels: []*Cache{l1i, l2},
		MemLat:  88,
	}, nil
}

// PaperHierarchyB is the 8-issue machine's three-level configuration
// (Table 5.5): 4K L1I/L1D, 64K L2I (2-way) and L2D (4-way), 4M L3,
// 92-cycle memory.
func PaperHierarchyB() (*Hierarchy, error) {
	l1i, err := New(Config{Name: "Lev1 ICache", Size: 4 << 10, Assoc: 1, Line: 64, Latency: 0})
	if err != nil {
		return nil, err
	}
	l1d, err := New(Config{Name: "Lev1 DCache", Size: 4 << 10, Assoc: 4, Line: 64, Latency: 0})
	if err != nil {
		return nil, err
	}
	l2i, err := New(Config{Name: "Lev2 ICache", Size: 64 << 10, Assoc: 2, Line: 128, Latency: 4})
	if err != nil {
		return nil, err
	}
	l2d, err := New(Config{Name: "Lev2 DCache", Size: 64 << 10, Assoc: 4, Line: 128, Latency: 4})
	if err != nil {
		return nil, err
	}
	l3, err := New(Config{Name: "Lev3 JCache", Size: 4 << 20, Assoc: 4, Line: 256, Latency: 16})
	if err != nil {
		return nil, err
	}
	return &Hierarchy{
		DLevels: []*Cache{l1d, l2d, l3},
		ILevels: []*Cache{l1i, l2i, l3},
		MemLat:  92,
	}, nil
}
