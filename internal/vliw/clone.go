package vliw

// Deep copies of translated groups. The hot tier of the persistent
// translation cache keeps one pristine decoded Group per entry and serves
// every Load from it — but a served group is mutated by its machine: the
// page layout assigns VLIW.Addr/Bytes, and the dispatcher patches
// Exit.Chain links. Two machines must therefore never share VLIW or Node
// objects, so the cache hands out clones. Cloning is a straight structure
// walk — no parsing, no validation — into one exact array each of VLIWs,
// nodes, conditions and parcels, which is what makes a hot-tier hit
// cheaper than re-decoding the binary form.

// CloneGroup returns a deep copy of g sharing no mutable state with it,
// in the same few allocations whatever g's size. Chain links are not
// copied: they are per-machine dispatch state, and a freshly served group
// starts unchained exactly like a freshly decoded one. Deopt tables are
// not copied either (tier-2 groups are never cached); the clone is always
// a tier-1 group like its source. ExitNext successors are remapped by
// VLIW.ID, which indexes g.VLIWs (as StepNodes relies on).
func CloneGroup(g *Group) *Group {
	var n treeSize
	for _, v := range g.VLIWs {
		n.add(v.Root)
	}
	c := cloner{
		vliws:   make([]VLIW, len(g.VLIWs)),
		nodes:   make([]Node, 0, n.nodes),
		conds:   make([]Cond, 0, n.conds),
		parcels: make([]Parcel, 0, n.parcels),
	}
	ng := &Group{
		Entry:     g.Entry,
		VLIWs:     make([]*VLIW, len(g.VLIWs)),
		BaseInsts: g.BaseInsts,
		Parcels:   g.Parcels,
		Tier:      g.Tier,
	}
	for i, v := range g.VLIWs {
		c.vliws[i] = *v
		c.vliws[i].Root = c.node(v.Root)
		ng.VLIWs[i] = &c.vliws[i]
	}
	return ng
}

// treeSize counts what VLIW trees hold.
type treeSize struct{ nodes, conds, parcels int }

// add counts the subtree at n.
func (s *treeSize) add(n *Node) {
	s.nodes++
	s.parcels += len(n.Ops)
	if n.Cond != nil {
		s.conds++
		s.add(n.Taken)
		s.add(n.Fall)
	}
}

// cloner holds a clone's arrays. They are allocated at their exact size
// first (treeSize), so appending never moves them and the clone's
// pointers into them stay valid; each node's Ops is a three-index slice,
// so an append to it cannot run into its neighbour's parcels.
type cloner struct {
	vliws   []VLIW
	nodes   []Node
	conds   []Cond
	parcels []Parcel
}

// node copies the subtree at n into c's arrays and returns its root.
func (c *cloner) node(n *Node) *Node {
	c.nodes = append(c.nodes, *n)
	nn := &c.nodes[len(c.nodes)-1]
	nn.Exit.Chain = nil
	nn.Ops = nil
	if len(n.Ops) > 0 {
		k := len(c.parcels)
		c.parcels = append(c.parcels, n.Ops...)
		nn.Ops = c.parcels[k:len(c.parcels):len(c.parcels)]
	}
	if n.Cond == nil {
		nn.Taken, nn.Fall = nil, nil
		if n.Exit.Kind == ExitNext && n.Exit.Next != nil {
			nn.Exit.Next = &c.vliws[n.Exit.Next.ID]
		}
		return nn
	}
	c.conds = append(c.conds, *n.Cond)
	nn.Cond = &c.conds[len(c.conds)-1]
	nn.Taken = c.node(n.Taken)
	nn.Fall = c.node(n.Fall)
	return nn
}
