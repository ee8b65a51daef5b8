package p4ir

import (
	"fmt"
	"slices"
)

// Index is a program's graph numbered once: one ID per node, in NodeNames
// order (so unreachable nodes have IDs too; a name that is both a table and
// a conditional, which P4S05 rejects, is two nodes and ID finds the table),
// and what one DFS from the root finds. Every layer that walks the graph
// by number — the emulator's plan, the analyzer's closure, the optimizer's
// cost view, the abstract interpreter — takes its IDs and its order from
// here, so no two can read an edge differently. An Index is immutable and
// does not follow later edits of its program.
//
// "" is the sink and never a node: ID("") is -1, also in a program that
// has a node of that name (StructuralDiagnostics rejects one, P4S10).
type Index struct {
	names []string // ID → name, ascending
	ids   map[string]int32
	nodes []node  // ID → the table or the conditional
	split []int32 // the table IDs, then the conditional IDs, each ascending
	ntab  int

	// topo is the DFS's reverse post-order: every node the root reaches,
	// once; pos an ID's place in it, -1 when unreachable.
	topo, pos []int32

	// Node id's successors are succ[succOff[id]:succOff[id+1]], ascending,
	// the sink and missing references left out; its predecessors among
	// the reachable nodes are pred[predOff[id]:predOff[id+1]], ascending.
	succOff, succ, predOff, pred []int32

	// The DFS's findings: back lists the node each back edge enters, in
	// DFS order; err is the first finding, a cycle or a reference to a
	// missing node.
	back []int32
	err  error
}

type node struct {
	t *Table
	c *Conditional
}

// nexts returns the node's distinct successor names, sorted, missing nodes
// included and the sink left out, in buf's storage.
func (nd node) nexts(buf []string) []string {
	buf = buf[:0]
	if nd.t != nil {
		buf = append(buf, nd.t.BaseNext)
		for _, nxt := range nd.t.ActionNext {
			buf = append(buf, nxt)
		}
	} else if nd.c != nil {
		buf = append(buf, nd.c.TrueNext, nd.c.FalseNext)
	}
	slices.Sort(buf)
	buf = slices.Compact(buf)
	if len(buf) > 0 && buf[0] == "" {
		buf = slices.Delete(buf, 0, 1)
	}
	return buf
}

// NewIndex numbers prog's nodes and walks its graph once from the root,
// each node's successors in name order. A DFS meeting a back edge or a
// missing reference records it and goes on (a missing node is a sink), so
// an invalid program gets an index too.
func NewIndex(prog *Program) *Index {
	names := prog.NodeNames()
	n := len(names)
	ix := &Index{names: names, ids: make(map[string]int32, n), nodes: make([]node, n), split: make([]int32, 0, n),
		topo: make([]int32, 0, n), pos: make([]int32, n), succOff: make([]int32, n+1), succ: make([]int32, 0, 2*n)}
	var conds []int32
	for id, name := range names {
		t, c := prog.Node(name)
		if id > 0 && names[id-1] == name {
			t, c = nil, prog.Conds[name] // the second of a duplicate name
		} else if name != "" {
			ix.ids[name] = int32(id)
		}
		ix.nodes[id], ix.pos[id] = node{t, c}, -1 // unseen by the DFS
		if t != nil {
			ix.split = append(ix.split, int32(id))
		} else {
			conds = append(conds, int32(id))
		}
	}
	ix.ntab, ix.split = len(ix.split), append(ix.split, conds...)

	// The successor CSR, a missing reference kept as -1-k for missing[k].
	var buf, missing []string
	for id, nd := range ix.nodes {
		buf = nd.nexts(buf)
		for _, name := range buf {
			s := ix.ID(name)
			if s < 0 {
				s = int32(-1 - len(missing))
				missing = append(missing, name)
			}
			ix.succ = append(ix.succ, s)
		}
		ix.succOff[id+1] = int32(len(ix.succ))
	}

	// The DFS: pos is -1 for a node not yet seen, -2 for one on the
	// current path, and its post-order number once done. It counts each
	// node's predecessors into predOff.
	const unseen, onPath = -1, -2
	ix.predOff = make([]int32, n+1)
	find := func(err error) { // the first finding is the index's error
		if ix.err == nil {
			ix.err = err
		}
	}
	var visit func(u int32)
	visit = func(u int32) {
		ix.pos[u] = onPath
		for _, s := range ix.succ[ix.succOff[u]:ix.succOff[u+1]] {
			if s < 0 {
				find(fmt.Errorf("p4ir: reference to missing node %q", missing[-1-s]))
				continue
			}
			ix.predOff[s+1]++
			if ix.pos[s] == onPath {
				ix.back = append(ix.back, s)
				find(fmt.Errorf("p4ir: cycle through node %q", names[s]))
			} else if ix.pos[s] == unseen {
				visit(s)
			}
		}
		ix.pos[u] = int32(len(ix.topo))
		ix.topo = append(ix.topo, u)
	}
	if root := ix.ID(prog.Root); root >= 0 {
		visit(root)
	} else if prog.Root != "" {
		find(fmt.Errorf("p4ir: reference to missing node %q", prog.Root))
	}
	slices.Reverse(ix.topo)
	for i, id := range ix.topo {
		ix.pos[id] = int32(i)
	}

	// Drop the missing references, then fill the predecessors.
	w, lo := int32(0), int32(0)
	for id := range n {
		for _, s := range ix.succ[lo:ix.succOff[id+1]] {
			if s >= 0 {
				ix.succ[w], w = s, w+1
			}
		}
		lo, ix.succOff[id+1] = ix.succOff[id+1], w
		ix.predOff[id+1] += ix.predOff[id]
	}
	ix.succ, ix.pred = ix.succ[:w], make([]int32, ix.predOff[n])
	fill := slices.Clone(ix.predOff)
	for u, p := range ix.pos {
		if p < 0 {
			continue
		}
		for _, s := range ix.Succ(int32(u)) {
			ix.pred[fill[s]] = int32(u)
			fill[s]++
		}
	}
	return ix
}

// Len returns the number of nodes (IDs are 0..Len()-1).
func (ix *Index) Len() int { return len(ix.names) }

// Names returns the node names by ID, ascending.
func (ix *Index) Names() []string { return ix.names }

// Name returns node id's name.
func (ix *Index) Name(id int32) string { return ix.names[id] }

// ID returns the named node's ID, or -1 for the sink "" and for a name no
// node has.
func (ix *Index) ID(name string) int32 {
	if id, ok := ix.ids[name]; ok {
		return id
	}
	return -1
}

// Table returns node id's table, nil for a conditional.
func (ix *Index) Table(id int32) *Table { return ix.nodes[id].t }

// Cond returns node id's conditional, nil for a table.
func (ix *Index) Cond(id int32) *Conditional { return ix.nodes[id].c }

// Tables returns the IDs of the table nodes, ascending.
func (ix *Index) Tables() []int32 { return ix.split[:ix.ntab] }

// Conds returns the IDs of the conditional nodes, ascending.
func (ix *Index) Conds() []int32 { return ix.split[ix.ntab:] }

// Topo returns the nodes the root reaches, each once, in the DFS's reverse
// post-order: a topological order exactly when Err is nil.
func (ix *Index) Topo() []int32 { return ix.topo }

// Pos returns node id's place in Topo, -1 when the root does not reach it.
func (ix *Index) Pos(id int32) int32 { return ix.pos[id] }

// Succ returns node id's distinct successors, ascending, the sink and
// missing references left out.
func (ix *Index) Succ(id int32) []int32 { return ix.succ[ix.succOff[id]:ix.succOff[id+1]] }

// EdgeOff numbers the edges between nodes: Succ(id)[j] is edge
// EdgeOff(id)+j, and EdgeOff(Len()) is their number.
func (ix *Index) EdgeOff(id int32) int { return int(ix.succOff[id]) }

// Pred returns the reachable nodes with an edge to node id, ascending.
func (ix *Index) Pred(id int32) []int32 { return ix.pred[ix.predOff[id]:ix.predOff[id+1]] }

// BackEdges returns, in DFS order, the node each back edge of the DFS
// enters: one per cycle it closed.
func (ix *Index) BackEdges() []int32 { return ix.back }

// Err returns the DFS's first finding, a cycle or a reference to a missing
// node, as TopoOrder reports it; nil for a DAG whose edges all resolve.
func (ix *Index) Err() error { return ix.err }
