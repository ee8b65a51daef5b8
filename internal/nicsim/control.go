package nicsim

import (
	"fmt"

	"pipeleon/internal/p4ir"
)

// Entry update API — the data-plane side of the control plane. Every call
// invalidates any runtime cache covering the table (§3.2.2: "an update in
// any of the original tables will invalidate the entire cache"); the update
// rate of §4 is counted by the caller (core). An operation applies to the
// NIC's copy of the program through p4ir's entry operations, which judge
// it (Table.CheckEntry), then to a fork of the table's lookup store — or to
// neither, which leaves program and store in agreement.

// InsertEntry installs an entry into a table.
func (n *NIC) InsertEntry(table string, e p4ir.Entry) error {
	return n.mutateTable(table, func() (func(), error) { return n.prog.InsertEntry(table, e) },
		func(t *p4ir.Table, rt *runtimeTable) error { rt.insert(&t.Entries[len(t.Entries)-1]); return nil }) // the table's copy
}

// DeleteEntry removes the first entry whose match values equal the given
// match.
func (n *NIC) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return n.mutateTable(table, func() (func(), error) { return n.prog.DeleteEntry(table, match) },
		func(_ *p4ir.Table, rt *runtimeTable) error { return rt.remove(match) })
}

// ModifyEntry replaces the action/args of the first entry whose match
// values equal the given match.
func (n *NIC) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return n.mutateTable(table, func() (func(), error) { return n.prog.ModifyEntry(table, match, action, args) },
		func(_ *p4ir.Table, rt *runtimeTable) error { return rt.modify(match, action, args) })
}

// mutateTable runs one entry operation, op on the program and store on a
// fork of the table's lookup store, and publishes the fork copy-on-write:
// in-flight Process calls keep walking the old plan; new calls see the new
// entries. The covering caches are invalidated after the publish, under the
// cache lock: after any burst that walks the old plan, so none survive.
func (n *NIC) mutateTable(table string, op func() (func(), error), store func(*p4ir.Table, *runtimeTable) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.prog.Tables[table]
	if !ok {
		return fmt.Errorf("nicsim: no table %q", table)
	}
	undo, err := op()
	if err != nil {
		return fmt.Errorf("nicsim: %w", err)
	}
	rt := n.tables[table].fork()
	if err := store(t, rt); err != nil {
		undo()
		return fmt.Errorf("nicsim: %w", err)
	}
	n.tables[table] = rt
	n.digest = p4ir.Digest{} // t changed in place
	pl := n.plan.Load()
	if id := pl.ix.ID(table); id >= 0 {
		n.plan.Store(pl.rebuiltNode(id, rt))
	}
	n.cacheMu.Lock()
	for _, fc := range n.coveredBy[table] {
		fc.invalidate()
	}
	if n.vendorCache != nil {
		n.vendorCache.invalidate()
	}
	n.cacheMu.Unlock()
	return nil
}

// CacheStatsAll returns stats for every runtime cache (sorted by table
// name), plus the vendor cache if enabled.
func (n *NIC) CacheStatsAll() []CacheStats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []CacheStats
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	for _, name := range n.plan.Load().ix.Names() {
		if fc, ok := n.caches[name]; ok {
			out = append(out, fc.stats())
		}
	}
	if n.vendorCache != nil {
		out = append(out, n.vendorCache.stats())
	}
	return out
}
