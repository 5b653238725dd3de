package core

import (
	"fmt"

	"daisy/internal/vliw"
)

// VLIWBase is where the translated code area begins in VLIW virtual
// address space (Figure 3.1).
const VLIWBase = 0x8000_0000

// CodeExpansion is N, the fixed expansion factor reserving N bytes of
// translated code area per base-architecture byte (§3, N=4).
const CodeExpansion = 4

// PageTranslation holds every group translated for one base-architecture
// page: the unit of translation, creation and destruction (Chapter 3).
type PageTranslation struct {
	Base   uint32 // base-architecture page address
	Groups map[uint32]*vliw.Group

	// Order lists the group entries in the order the page layout placed
	// them. Groups is a map, so this is the only record of layout order —
	// the persistent translation cache serializes groups in it and
	// re-adopts them in it, making the reloaded page's translated-code
	// addresses identical to the original's.
	Order []uint32

	// CodeBytes is the total encoded VLIW code for the page (Table 5.1's
	// "average size of translated page" and Figure 5.4).
	CodeBytes int

	nextOff uint32 // next free offset in the page's translated code area
}

// VirtBase returns the page's address in the translated code area.
func (pt *PageTranslation) VirtBase() uint32 {
	return VLIWBase + pt.Base*CodeExpansion
}

// EmptyPage creates a page translation shell with no groups; entries are
// added on demand (interpretive mode translates lazily, trace by trace).
func EmptyPage(addr, pageSize uint32) *PageTranslation {
	return &PageTranslation{
		Base:   addr &^ (pageSize - 1),
		Groups: make(map[uint32]*vliw.Group),
	}
}

// EnsureEntryGuided translates a single group at entry following a
// recorded execution trace (Chapter 6's interpretive compilation): only
// the executed path is compiled; branch off-sides become lazy entries.
func (t *Translator) EnsureEntryGuided(pt *PageTranslation, entry uint32,
	guide func(pc uint32) (bool, bool)) (*vliw.Group, error) {
	if g, ok := pt.Groups[entry]; ok {
		return g, nil
	}
	saved := t.Opt.TraceGuide
	t.Opt.TraceGuide = guide
	defer func() { t.Opt.TraceGuide = saved }()
	g, _, size, err := t.translateGroup(entry)
	if err != nil {
		return nil, err
	}
	pt.Groups[entry] = g
	t.layout(pt, g, size)
	return g, nil
}

// TranslatePage creates the translation of the page containing entry,
// eagerly following the worklist of same-page entry points discovered at
// path exits (TranslateOneEntry, Figure 2.1).
func (t *Translator) TranslatePage(entry uint32) (*PageTranslation, error) {
	pt := &PageTranslation{
		Base:   entry &^ (t.Opt.PageSize - 1),
		Groups: make(map[uint32]*vliw.Group),
	}
	if _, err := t.EnsureEntry(pt, entry); err != nil {
		return nil, err
	}
	return pt, nil
}

// EnsureEntry returns the group translated at entry, creating it (and any
// same-page entries its paths exit to) on demand. This is the handler for
// the "invalid entry point" exception of §3.4.
func (t *Translator) EnsureEntry(pt *PageTranslation, entry uint32) (*vliw.Group, error) {
	if g, ok := pt.Groups[entry]; ok {
		return g, nil
	}
	if entry&3 != 0 {
		return nil, fmt.Errorf("core: misaligned entry point %#x", entry)
	}
	work := []uint32{entry}
	var first *vliw.Group
	for len(work) > 0 {
		e := work[0]
		work = work[1:]
		if _, ok := pt.Groups[e]; ok {
			continue
		}
		g, more, size, err := t.translateGroup(e)
		if err != nil {
			return nil, err
		}
		pt.Groups[e] = g
		t.layout(pt, g, size)
		if first == nil {
			first = g
		}
		work = append(work, more...)
	}
	if first == nil {
		first = pt.Groups[entry]
	}
	return first, nil
}

// Adopt installs an externally produced group — decoded from the
// persistent translation cache, or built by an async worker's private
// translator — into pt exactly as a freshly translated group would be:
// recorded in layout order and assigned translated-code-area addresses.
func (t *Translator) Adopt(pt *PageTranslation, g *vliw.Group) {
	pt.Groups[g.Entry] = g
	size, _ := codeSize(g)
	t.layout(pt, g, size)
}

// Unchain severs every group-chaining link recorded on the page's exit
// edges. The VMM calls it whenever the page's translation is destroyed —
// SMC invalidation, LRU cast-out, quarantine, adaptive retranslation — so
// no chained edge can reach a discarded group. Chains are intra-page, so
// walking only this page's groups is sufficient.
func (pt *PageTranslation) Unchain() {
	for _, g := range pt.Groups {
		for _, v := range g.VLIWs {
			v.Walk(func(n *vliw.Node) { n.Exit.Chain = nil })
		}
	}
}

// ChainCount reports the number of live chained exit edges on the page
// (for tests and inspection).
func (pt *PageTranslation) ChainCount() int {
	c := 0
	for _, g := range pt.Groups {
		for _, v := range g.VLIWs {
			v.Walk(func(n *vliw.Node) {
				if n.Exit.Chain != nil {
					c++
				}
			})
		}
	}
	return c
}

// codeSize returns the length of g's encoding and whether the encoder
// accepts g. A group it refuses, which the translator does not build, is
// laid out at 64 bytes per VLIW, to keep the accounting sane.
func codeSize(g *vliw.Group) (int, bool) {
	size, err := vliw.CodeSize(g)
	if err != nil {
		return 64 * len(g.VLIWs), false
	}
	return size, true
}

// layout assigns translated-code-area addresses to the group's VLIWs, whose
// encoding is size bytes (codeSize): the entry VLIW at offset entry*N (so
// cross-page branches can compute it), subsequent VLIWs sequentially,
// spilling into the page's overflow area when the fixed N-times window is
// exhausted (§3.4).
func (t *Translator) layout(pt *PageTranslation, g *vliw.Group, size int) {
	base := pt.VirtBase()
	entryOff := (g.Entry - pt.Base) * CodeExpansion
	off := entryOff
	if off < pt.nextOff {
		off = pt.nextOff // sequential allocation past earlier groups
	}
	// Distribute the encoded size across the group's VLIWs
	// proportionally to their parcel counts for cache simulation. Each
	// VLIW's weight waits in Bytes until its share replaces it, so every
	// tree is walked once.
	total := 0
	for _, v := range g.VLIWs {
		v.Bytes = v.CountParcels() + 2
		total += v.Bytes
	}
	for _, v := range g.VLIWs {
		v.Addr = base + off
		share := size * v.Bytes / total
		if share < 8 {
			share = 8
		}
		v.Bytes = share
		off += uint32(share)
	}
	pt.nextOff = off
	pt.CodeBytes += size
	pt.Order = append(pt.Order, g.Entry)
}
