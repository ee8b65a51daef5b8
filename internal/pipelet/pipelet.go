// Package pipelet implements Pipeleon's pipelet-based program partitioning
// and hot-spot detection (§4.1).
//
// A pipelet is a branch-free run of match-action tables — the
// domain-specific analogue of a compiler basic block. Programs are
// partitioned at conditionals and at switch-case tables (both create
// multiple dataflows); a switch-case table is a pipelet of its own. Long
// pipelets are split at a configurable maximum length, and neighbouring
// pipelets under a common branch with a common exit can be grouped for
// joint optimization.
package pipelet

import (
	"fmt"
	"sort"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Pipelet is a branch-free sequence of tables.
type Pipelet struct {
	// ID is the pipelet's index in program topological order.
	ID int
	// Tables are the member table names in execution order.
	Tables []string
	// SwitchCase marks a single-table pipelet formed by a switch-case
	// table.
	SwitchCase bool
	// ExitNext is the node the pipelet's traffic flows to afterwards
	// ("" = sink). For switch-case pipelets this is unset (multiple
	// exits).
	ExitNext string
}

// Head returns the first table of the pipelet.
func (p *Pipelet) Head() string { return p.Tables[0] }

// Len returns the pipelet length (table count).
func (p *Pipelet) Len() int { return len(p.Tables) }

func (p *Pipelet) String() string {
	return fmt.Sprintf("pipelet#%d%v", p.ID, p.Tables)
}

// Partition is the result of splitting a program into pipelets.
type Partition struct {
	Pipelets []*Pipelet
	// ByTable maps a table name to the index of its pipelet in Pipelets.
	ByTable map[string]int
	ix      *p4ir.Index // the program's, which Form read
}

// DefaultMaxLen is the default long-pipelet split threshold. The paper
// notes "long pipelets could form when a program has few conditional
// branches, which diminishes the benefits of pipelet partition; Pipeleon
// further partitions large pipelets into smaller ones".
const DefaultMaxLen = 8

// Form partitions prog into pipelets. maxLen bounds pipelet length
// (<=0 uses DefaultMaxLen).
//
// Formation walks the DAG: a pipelet starts at the root, after a
// conditional, after a switch-case table, or at any join node (a node with
// more than one predecessor), and extends through plain tables whose
// successor is a plain single-predecessor table, up to maxLen.
func Form(prog *p4ir.Program, maxLen int) (*Partition, error) {
	if maxLen <= 0 {
		maxLen = DefaultMaxLen
	}
	ix := p4ir.NewIndex(prog)
	if err := ix.Err(); err != nil {
		return nil, err
	}
	part := &Partition{ByTable: map[string]int{}, ix: ix}

	// A pipelet starts at the root, at a join node (or an unreachable
	// orphan), and after the single predecessor that ends a pipelet: a
	// conditional or a switch-case table.
	root := ix.ID(prog.Root)
	isPipeletStart := func(id int32) bool {
		pl := ix.Pred(id)
		return id == root || len(pl) != 1 || ix.Table(pl[0]) == nil || ix.Table(pl[0]).IsSwitchCase()
	}

	assigned := map[string]bool{}
	for _, id := range ix.Topo() {
		name := ix.Name(id)
		// Conditionals are boundaries, not members.
		if ix.Table(id) == nil || assigned[name] || !isPipeletStart(id) {
			continue
		}
		// Grow the chain from here.
		for cur := name; cur != ""; {
			ct := prog.Tables[cur]
			p := &Pipelet{ID: len(part.Pipelets)}
			if ct.IsSwitchCase() {
				p.Tables = []string{cur}
				p.SwitchCase = true
				assigned[cur] = true
				part.add(p)
				break
			}
			for {
				p.Tables = append(p.Tables, cur)
				assigned[cur] = true
				nxt := ct.BaseNext
				if nxt == "" || len(p.Tables) >= maxLen {
					p.ExitNext = nxt
					break
				}
				nt, _ := prog.Node(nxt)
				if nt == nil || nt.IsSwitchCase() || len(ix.Pred(ix.ID(nxt))) != 1 {
					p.ExitNext = nxt
					break
				}
				cur, ct = nxt, nt
			}
			part.add(p)
			// Continue with a fresh pipelet if we split purely on
			// maxLen (the successor is a plain single-pred table).
			nxt := p.ExitNext
			if nxt == "" {
				break
			}
			nt, _ := prog.Node(nxt)
			if nt == nil || assigned[nxt] || len(ix.Pred(ix.ID(nxt))) != 1 {
				break
			}
			cur = nxt
		}
	}
	// Deterministic order by first-table topological position.
	sort.SliceStable(part.Pipelets, func(i, j int) bool {
		return ix.Pos(ix.ID(part.Pipelets[i].Head())) < ix.Pos(ix.ID(part.Pipelets[j].Head()))
	})
	for i, p := range part.Pipelets {
		p.ID = i
		for _, tbl := range p.Tables {
			part.ByTable[tbl] = i
		}
	}
	return part, nil
}

func (part *Partition) add(p *Pipelet) {
	part.Pipelets = append(part.Pipelets, p)
}

// Cost is a pipelet's contribution to program latency.
type Cost struct {
	Pipelet *Pipelet
	// Weighted is L(G')·P(G') — the pipelet's expected-latency
	// contribution (§4.1.2).
	Weighted float64
}

// TopK selects the top fraction (0 < frac <= 1) of pipelets by weighted
// cost; at least one pipelet is returned for a non-empty partition.
// frac = 1 is the exhaustive-search (ESearch) configuration.
func TopK(costs []Cost, frac float64) []*Pipelet {
	if len(costs) == 0 {
		return nil
	}
	if frac <= 0 {
		frac = 0.2
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(costs))*frac + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > len(costs) {
		n = len(costs)
	}
	out := make([]*Pipelet, n)
	for i := 0; i < n; i++ {
		out[i] = costs[i].Pipelet
	}
	return out
}

// TrafficDistribution returns each pipelet's share of traffic (reach
// probability of its head, normalized). Its entropy characterizes workload
// aggregation (§5.4.3, appendix A.3).
func TrafficDistribution(prog *p4ir.Program, prof *profile.Profile, part *Partition) []float64 {
	reach := prof.ReachProbs(prog)
	out := make([]float64, len(part.Pipelets))
	var total float64
	for i, p := range part.Pipelets {
		out[i] = reach[p.Head()]
		total += out[i]
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// Group is a set of neighbouring pipelets under a common branch node that
// can be optimized jointly (§4.1.1): one node receives all incoming
// traffic (the branch), and all members exit to the same node. Groups can
// chain: when a group's exit leads (possibly via a join pipelet) into
// another group's branch, the two merge into a larger group, like
// Figure 8's group ①②③④ spanning two consecutive diamonds.
type Group struct {
	// Branch is the entry branch node (conditional or switch-case table).
	Branch string
	// Branches lists every branch node inside the group (including
	// Branch) — chained groups contain several.
	Branches []string
	// Members are the grouped pipelets.
	Members []*Pipelet
	// Exit is the common successor all traffic flows to after the group.
	Exit string
}

// Tables returns all member tables in deterministic order.
func (g Group) Tables() []string {
	var out []string
	for _, m := range g.Members {
		out = append(out, m.Tables...)
	}
	return out
}

// FindGroups detects pipelet groups among the selected pipelets: for every
// branch node whose successors are all heads of selected pipelets and
// whose member pipelets all exit to one common node, a Group is emitted.
// part is Form's partition of prog.
func FindGroups(prog *p4ir.Program, part *Partition, selected []*Pipelet) []Group {
	selectedHead := map[string]*Pipelet{}
	for _, p := range selected {
		selectedHead[p.Head()] = p
	}
	var groups []Group
	ix := part.ix
	for id, bn := range ix.Names() {
		succs := ix.Succ(int32(id))
		if t := ix.Table(int32(id)); t != nil && !t.IsSwitchCase() || len(succs) < 2 {
			continue
		}
		var members []*Pipelet
		exit := ""
		ok := true
		for i, s := range succs {
			p, found := selectedHead[ix.Name(s)]
			if !found || p.SwitchCase {
				ok = false
				break
			}
			if i == 0 {
				exit = p.ExitNext
			} else if p.ExitNext != exit {
				ok = false
				break
			}
			members = append(members, p)
		}
		if ok && len(members) >= 2 {
			groups = append(groups, Group{Branch: bn, Branches: []string{bn}, Members: members, Exit: exit})
		}
	}
	return chainGroups(prog, groups, selectedHead)
}

// chainGroups merges consecutive groups: when a group's exit is another
// group's branch — directly, or through one selected join pipelet — the
// groups combine into a larger block with a single entry and exit.
func chainGroups(prog *p4ir.Program, groups []Group, selectedHead map[string]*Pipelet) []Group {
	if len(groups) < 2 {
		return groups
	}
	byBranch := map[string]int{}
	for i, g := range groups {
		byBranch[g.Branch] = i
	}
	consumed := make([]bool, len(groups))
	var out []Group
	for i := range groups {
		if consumed[i] {
			continue
		}
		g := groups[i]
		for {
			exit := g.Exit
			// Direct chain: exit is another group's branch.
			if j, ok := byBranch[exit]; ok && !consumed[j] && j != i {
				nxt := groups[j]
				g.Members = append(g.Members, nxt.Members...)
				g.Branches = append(g.Branches, nxt.Branches...)
				g.Exit = nxt.Exit
				consumed[j] = true
				continue
			}
			// Chain through one selected join pipelet.
			if p, ok := selectedHead[exit]; ok && !p.SwitchCase {
				if j, ok2 := byBranch[p.ExitNext]; ok2 && !consumed[j] && j != i {
					nxt := groups[j]
					g.Members = append(append(g.Members, p), nxt.Members...)
					g.Branches = append(g.Branches, nxt.Branches...)
					g.Exit = nxt.Exit
					consumed[j] = true
					continue
				}
				// No further group: absorb the trailing join pipelet
				// itself (all group traffic flows through it), so a
				// group-wide cache also short-circuits the join.
				if !memberOf(g.Members, p) {
					g.Members = append(g.Members, p)
					g.Exit = p.ExitNext
					continue
				}
			}
			break
		}
		out = append(out, g)
	}
	_ = prog
	return out
}

func memberOf(members []*Pipelet, p *Pipelet) bool {
	for _, m := range members {
		if m == p {
			return true
		}
	}
	return false
}
