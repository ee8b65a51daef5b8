package nicsim

import (
	"fmt"

	"pipeleon/internal/p4ir"
)

// Entry update API — the data-plane side of the control plane. Every call
// invalidates any runtime cache covering the table (§3.2.2: "an update in
// any of the original tables will invalidate the entire cache"); the update
// rate of §4 is counted by the caller (core). An operation validates, then
// applies to a fork of the table's lookup store, then to Table.Entries —
// or to neither: the fork of a refused one is dropped, which leaves program
// and store in agreement.

// InsertEntry installs an entry into a table.
func (n *NIC) InsertEntry(table string, e p4ir.Entry) error {
	return n.mutateTable(table, func(t *p4ir.Table, rt *runtimeTable) error {
		se, err := rt.insert(&e)
		if err != nil {
			return err
		}
		if err := t.InsertEntry(e); err != nil {
			return err
		}
		se.match = t.Entries[len(t.Entries)-1].Match // the table's copy, not the caller's
		return nil
	})
}

// DeleteEntry removes the first entry whose match values equal the given
// match.
func (n *NIC) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return n.mutateTable(table, func(t *p4ir.Table, rt *runtimeTable) error {
		if err := rt.remove(match); err != nil {
			return err
		}
		_, _, err := t.DeleteEntry(match)
		return err
	})
}

// ModifyEntry replaces the action/args of the first entry whose match
// values equal the given match.
func (n *NIC) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return n.mutateTable(table, func(t *p4ir.Table, rt *runtimeTable) error {
		if err := rt.modify(match, action, args); err != nil {
			return err
		}
		_, _, err := t.ModifyEntry(match, action, args)
		return err
	})
}

// ReplaceEntries swaps a table's whole entry set (bulk install): the fork
// becomes a store built afresh from the new entries.
func (n *NIC) ReplaceEntries(table string, entries []p4ir.Entry) error {
	return n.mutateTable(table, func(t *p4ir.Table, rt *runtimeTable) error {
		fresh := make([]p4ir.Entry, len(entries))
		for i, e := range entries {
			fresh[i] = e.Clone()
		}
		built, err := buildTable(t, fresh, n.kern.PinnedM(t))
		if err != nil {
			return err
		}
		*rt, t.Entries = *built, fresh
		return nil
	})
}

// mutateTable runs one entry operation against a fork of the table's
// lookup store and publishes the fork copy-on-write: in-flight Process
// calls keep walking the old plan; new calls see the new entries. The
// covering caches are invalidated after the publish, under the cache lock:
// after any burst that walks the old plan, so none of its fills survive.
func (n *NIC) mutateTable(table string, op func(*p4ir.Table, *runtimeTable) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.prog.Tables[table]
	if !ok {
		return fmt.Errorf("nicsim: no table %q", table)
	}
	rt := n.tables[table].fork()
	if err := op(t, rt); err != nil {
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

// Counters returns processed/dropped totals.
func (n *NIC) Counters() (processed, dropped uint64) {
	return n.processed.Load(), n.droppedCnt.Load()
}
