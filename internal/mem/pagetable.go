package mem

// The page table is the x86_64-style four-level radix tree: 9 bits per
// level (PGD, PUD, PMD, PT) over a 48-bit virtual address with 4 KiB
// leaves. The paper's address-space sharing means *one* page table is
// shared by all PiP tasks; this is modeled by all tasks holding the same
// *AddressSpace, hence the same *PageTable.

const (
	ptLevels     = 4
	ptBitsPer    = 9
	ptEntriesPer = 1 << ptBitsPer // 512
)

// PTE is a leaf page-table entry.
type PTE struct {
	Frame *Frame
	Prot  Prot
	// COW marks a copy-on-write page: shared with another space until
	// the next write, which copies the frame (see AddressSpace.ForkCoW).
	COW bool
	// Accessed/Dirty model the hardware A/D bits.
	Accessed bool
	Dirty    bool
}

// ptNode is one interior or leaf table of 512 entries.
type ptNode struct {
	children [ptEntriesPer]*ptNode // interior levels
	entries  [ptEntriesPer]*PTE    // leaf level only
	live     int                   // number of non-nil slots
}

// PageTable is a four-level translation tree.
type PageTable struct {
	root *ptNode

	// mapped counts live leaf PTEs.
	mapped uint64
}

// NewPageTable creates an empty table.
func NewPageTable() *PageTable { return &PageTable{root: &ptNode{}} }

// indices splits a virtual address into the four level indices.
func indices(va uint64) [ptLevels]int {
	var ix [ptLevels]int
	va >>= PageShift
	for l := ptLevels - 1; l >= 0; l-- {
		ix[l] = int(va & (ptEntriesPer - 1))
		va >>= ptBitsPer
	}
	return ix
}

// Lookup returns the PTE mapping va's page, or nil.
func (pt *PageTable) Lookup(va uint64) *PTE {
	// The walk shifts each level's index out of va in place rather than
	// through indices: Lookup is inlined into every translation, and
	// the index array would widen each caller's frame.
	n := pt.root
	for shift := uint(PageShift + ptBitsPer*(ptLevels-1)); shift > PageShift; shift -= ptBitsPer {
		n = n.children[(va>>shift)&(ptEntriesPer-1)]
		if n == nil {
			return nil
		}
	}
	return n.entries[(va>>PageShift)&(ptEntriesPer-1)]
}

// Map installs a PTE for va's page, walking and creating interior nodes.
// It panics if the page is already mapped: callers must Unmap first (the
// simulated kernel never silently remaps).
func (pt *PageTable) Map(va uint64, pte *PTE) {
	n := pt.root
	ix := indices(va)
	for l := 0; l < ptLevels-1; l++ {
		child := n.children[ix[l]]
		if child == nil {
			child = &ptNode{}
			n.children[ix[l]] = child
			n.live++
		}
		n = child
	}
	if n.entries[ix[ptLevels-1]] != nil {
		panic("mem: double map of " + fmtAddr(va))
	}
	n.entries[ix[ptLevels-1]] = pte
	n.live++
	pt.mapped++
}

// Unmap removes the PTE for va's page and returns it, or nil if the page
// was not mapped. Empty interior nodes are pruned.
func (pt *PageTable) Unmap(va uint64) *PTE {
	ix := indices(va)
	var path [ptLevels]*ptNode
	n := pt.root
	for l := 0; l < ptLevels-1; l++ {
		path[l] = n
		n = n.children[ix[l]]
		if n == nil {
			return nil
		}
	}
	path[ptLevels-1] = n
	pte := n.entries[ix[ptLevels-1]]
	if pte == nil {
		return nil
	}
	n.entries[ix[ptLevels-1]] = nil
	n.live--
	pt.mapped--
	// Prune empty tables bottom-up (never the root).
	for l := ptLevels - 1; l >= 1; l-- {
		if path[l].live != 0 {
			break
		}
		path[l-1].children[ix[l-1]] = nil
		path[l-1].live--
	}
	return pte
}

// Mapped reports the number of mapped pages.
func (pt *PageTable) Mapped() uint64 { return pt.mapped }

// WalkCost reports the number of memory references a hardware page walk
// of this table performs (one per level).
func (pt *PageTable) WalkCost() int { return ptLevels }

// Range calls fn for every mapped page in ascending address order.
// Returning false from fn stops the walk.
func (pt *PageTable) Range(fn func(va uint64, pte *PTE) bool) {
	pt.walkNode(pt.root, 0, 0, fn)
}

func (pt *PageTable) walkNode(n *ptNode, level int, prefix uint64, fn func(uint64, *PTE) bool) bool {
	shift := uint(PageShift + (ptLevels-1-level)*ptBitsPer)
	for i := 0; i < ptEntriesPer; i++ {
		va := prefix | uint64(i)<<shift
		if level == ptLevels-1 {
			if pte := n.entries[i]; pte != nil {
				if !fn(va, pte) {
					return false
				}
			}
			continue
		}
		if child := n.children[i]; child != nil {
			if !pt.walkNode(child, level+1, va, fn) {
				return false
			}
		}
	}
	return true
}
