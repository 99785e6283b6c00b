// Package pagetable implements a hardware-style multi-level radix page
// table: the in-RAM dictionary of address translations that a TLB miss
// falls back to.
//
// The paper's cost model abstracts a page-table walk into the TLB-miss
// cost ε; this package provides the concrete substrate behind that
// abstraction. It is used by the simulator to (a) hold the authoritative
// virtual→physical mapping for baseline (non-decoupled) configurations and
// (b) account for walk work — the number of node visits per translation —
// which experiments can report alongside the abstract ε-costs.
//
// The layout mirrors x86-64: radix-512 nodes (9 bits per level), with the
// level count chosen from the virtual address width. Huge-page mappings
// terminate the walk at a higher level, exactly how real hardware shortens
// walks for 2 MiB / 1 GiB pages.
package pagetable

import "fmt"

// bitsPerLevel is the radix of each node (512 entries), as on x86-64.
const bitsPerLevel = 9

// Table is a multi-level radix page table mapping virtual page numbers to
// physical page numbers.
type Table struct {
	root    *node
	levels  int
	vBits   uint
	entries uint64 // mapped leaf count

	walks      uint64 // total Translate calls that had to walk (misses come here)
	nodeVisits uint64 // total nodes touched by walks
}

type node struct {
	// children is non-nil for interior nodes.
	children []*node
	// leaves is non-nil for last-level nodes; value+1 stored so 0 = unmapped.
	leaves []uint64
	// hugePhys+1 if this whole node is mapped as one huge page; 0 otherwise.
	hugePhys uint64
	// used counts live children or leaves, so empty nodes can be pruned.
	used int
}

// New creates a page table covering a virtual address space of vPages
// pages. The number of levels is the minimum needed to cover vPages with
// radix-512 nodes.
func New(vPages uint64) *Table {
	if vPages == 0 {
		panic("pagetable: vPages must be positive")
	}
	bits := uint(1)
	for (vPages-1)>>bits != 0 {
		bits++
	}
	levels := int((bits + bitsPerLevel - 1) / bitsPerLevel)
	if levels < 1 {
		levels = 1
	}
	return &Table{
		root:   newNode(levels > 1),
		levels: levels,
		vBits:  bits,
	}
}

func newNode(interior bool) *node {
	n := &node{}
	if interior {
		n.children = make([]*node, 1<<bitsPerLevel)
	} else {
		n.leaves = make([]uint64, 1<<bitsPerLevel)
	}
	return n
}

// Entries returns the number of mapped base pages (huge-page mappings
// count as their full page span).
func (t *Table) Entries() uint64 { return t.entries }

// indexAt extracts the radix index for the given level (level 0 = root).
func (t *Table) indexAt(v uint64, level int) int {
	shift := uint(t.levels-1-level) * bitsPerLevel
	return int(v >> shift & (1<<bitsPerLevel - 1))
}

// Map installs the translation v → phys. It panics if v is already mapped
// (callers must Unmap first), including being covered by a huge mapping.
func (t *Table) Map(v, phys uint64) {
	t.checkRange(v, 1)
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		if n.hugePhys != 0 {
			panic(fmt.Sprintf("pagetable: page %d already covered by a huge mapping", v))
		}
		idx := t.indexAt(v, level)
		child := n.children[idx]
		if child == nil {
			child = newNode(level+1 < t.levels-1)
			n.children[idx] = child
			n.used++
		}
		n = child
	}
	idx := t.indexAt(v, t.levels-1)
	if n.leaves[idx] != 0 {
		panic(fmt.Sprintf("pagetable: page %d already mapped", v))
	}
	n.leaves[idx] = phys + 1
	n.used++
	t.entries++
}

// MapHuge installs a huge mapping of span pages starting at virtual page v,
// mapping contiguously to physical pages starting at phys. span must be a
// power of 512^j for some j ≥ 1 (a whole node at some level) and v, phys
// must be span-aligned — the same alignment rules hardware imposes.
func (t *Table) MapHuge(v, phys, span uint64) {
	t.checkRange(v, span)
	level := t.levelForSpan(span)
	if v%span != 0 {
		panic(fmt.Sprintf("pagetable: huge mapping at %d not aligned to span %d", v, span))
	}
	n := t.root
	for l := 0; l < level; l++ {
		if n.hugePhys != 0 {
			panic(fmt.Sprintf("pagetable: page %d already covered by a huge mapping", v))
		}
		idx := t.indexAt(v, l)
		child := n.children[idx]
		if child == nil {
			child = newNode(l+1 < t.levels-1)
			n.children[idx] = child
			n.used++
		}
		n = child
	}
	if n.hugePhys != 0 || n.used != 0 {
		panic(fmt.Sprintf("pagetable: huge mapping at %d overlaps existing mappings", v))
	}
	n.hugePhys = phys + 1
	t.entries += span
}

// levelForSpan returns the node depth at which a huge mapping of the given
// span terminates; it panics for invalid spans.
func (t *Table) levelForSpan(span uint64) int {
	pages := uint64(1)
	for level := t.levels; level >= 1; level-- {
		if pages == span {
			return level - 1
		}
		pages <<= bitsPerLevel
	}
	panic(fmt.Sprintf("pagetable: span %d is not a node size (powers of 512 up to the table height)", span))
}

// Unmap removes the translation for base page v. It panics if unmapped or
// covered by a huge mapping (use UnmapHuge).
func (t *Table) Unmap(v uint64) {
	t.checkRange(v, 1)
	// Collect the path for pruning.
	path := make([]*node, 0, t.levels)
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		if n.hugePhys != 0 {
			panic(fmt.Sprintf("pagetable: page %d covered by huge mapping; use UnmapHuge", v))
		}
		path = append(path, n)
		child := n.children[t.indexAt(v, level)]
		if child == nil {
			panic(fmt.Sprintf("pagetable: page %d not mapped", v))
		}
		n = child
	}
	idx := t.indexAt(v, t.levels-1)
	if n.leaves[idx] == 0 {
		panic(fmt.Sprintf("pagetable: page %d not mapped", v))
	}
	n.leaves[idx] = 0
	n.used--
	t.entries--
	// Prune empty nodes bottom-up.
	for level := len(path) - 1; level >= 0 && n.used == 0 && n.hugePhys == 0; level-- {
		parent := path[level]
		parent.children[t.indexAt(v, level)] = nil
		parent.used--
		n = parent
	}
}

// UnmapHuge removes a huge mapping of the given span at v.
func (t *Table) UnmapHuge(v, span uint64) {
	t.checkRange(v, span)
	level := t.levelForSpan(span)
	path := make([]*node, 0, level)
	n := t.root
	for l := 0; l < level; l++ {
		path = append(path, n)
		child := n.children[t.indexAt(v, l)]
		if child == nil {
			panic(fmt.Sprintf("pagetable: huge page %d not mapped", v))
		}
		n = child
	}
	if n.hugePhys == 0 {
		panic(fmt.Sprintf("pagetable: huge page %d not mapped as huge", v))
	}
	n.hugePhys = 0
	t.entries -= span
	for l := len(path) - 1; l >= 0 && n.used == 0 && n.hugePhys == 0; l-- {
		parent := path[l]
		parent.children[t.indexAt(v, l)] = nil
		parent.used--
		n = parent
	}
}

// Translate walks the table for virtual page v, returning the physical
// page and whether it is mapped. Each call counts as one walk; the nodes
// visited accumulate into NodeVisits.
func (t *Table) Translate(v uint64) (phys uint64, ok bool) {
	t.checkRange(v, 1)
	t.walks++
	n := t.root
	for level := 0; level < t.levels-1; level++ {
		t.nodeVisits++
		if n.hugePhys != 0 {
			span := t.spanAtLevel(level)
			return n.hugePhys - 1 + v%span, true
		}
		n = n.children[t.indexAt(v, level)]
		if n == nil {
			return 0, false
		}
	}
	t.nodeVisits++
	if n.hugePhys != 0 {
		return n.hugePhys - 1 + v%(1<<bitsPerLevel), true
	}
	leaf := n.leaves[t.indexAt(v, t.levels-1)]
	if leaf == 0 {
		return 0, false
	}
	return leaf - 1, true
}

// spanAtLevel returns the number of base pages covered by one node at the
// given depth.
func (t *Table) spanAtLevel(level int) uint64 {
	return uint64(1) << (uint(t.levels-level-1) * bitsPerLevel)
}

// Walks returns the number of Translate calls performed.
func (t *Table) Walks() uint64 { return t.walks }

// NodeVisits returns the cumulative number of table nodes touched by
// walks — the concrete work behind the paper's abstract ε cost.
func (t *Table) NodeVisits() uint64 { return t.nodeVisits }

// checkRange panics when [v, v+span) exceeds the covered address space.
func (t *Table) checkRange(v, span uint64) {
	limit := uint64(1) << (uint(t.levels) * bitsPerLevel)
	if v >= limit || span > limit-v {
		panic(fmt.Sprintf("pagetable: page range [%d,%d) outside table covering %d pages", v, v+span, limit))
	}
}
