package core

import (
	"fmt"
	"slices"
	"strings"

	"pipeleon/internal/p4ir"
)

// API mapping (§2.3: "Pipeleon ensures the same program management APIs
// (e.g., entry insertion) by mapping the API calls to the original program
// to the optimized version").
//
// The original program is the source of truth for entries: every operation
// applies there first, then propagates to the deployed layout. Tables that
// survive in the optimized program take the fast path (direct device
// update, which also invalidates any covering runtime cache). Tables that
// were consumed by a merge require regenerating the merged cross-product —
// the runtime deploys the active plan again over the updated original,
// through the one deploy path a round takes (deploy.go: materialize and
// prove, gate, stage, make current) and commits it at once. That is the
// I(T_A)·N(T_B) update amplification the cost model charges merges for
// (§3.2.3).
//
// Both views change through p4ir's entry operations only, which count every
// change in the program's EntryVersion. The session's cost view, its
// verifier and the deploy gate key what they derived from the original's
// entries by that version, so an operation here tells none of them.

// InsertEntry adds an entry to a table of the *original* program and
// propagates the change to the deployed layout.
func (r *Runtime) InsertEntry(table string, e p4ir.Entry) error {
	return r.entryOp(table, func(p *p4ir.Program) (func(), error) { return p.InsertEntry(table, e) },
		func() error { return r.tgt.InsertEntry(table, e) })
}

// DeleteEntry removes the first entry with equal match values.
func (r *Runtime) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return r.entryOp(table, func(p *p4ir.Program) (func(), error) { return p.DeleteEntry(table, match) },
		func() error { return r.tgt.DeleteEntry(table, match) })
}

// ModifyEntry rewrites the action/args of the first matching entry.
func (r *Runtime) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return r.entryOp(table, func(p *p4ir.Program) (func(), error) { return p.ModifyEntry(table, match, action, args) },
		func() error { return r.tgt.ModifyEntry(table, match, action, args) })
}

// entryOp applies op — one of p4ir's entry operations, which returns its
// undo — to the original program, then propagates: fast path when the
// table exists untouched in the deployed program, slow path (the active
// plan deployed again, gated like a round's) when a merge consumed it. The
// operation is one transaction: both views validate before the device is
// asked, and when the device or the gate refuses (table full, RPC failure,
// failed redeploy, an Error finding in the regenerated program) both views
// are put back, so the runtime never believes in an entry the device does
// not hold — the next redeploy would silently install it.
func (r *Runtime) entryOp(table string, op func(*p4ir.Program) (func(), error), fast func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	undo, err := op(r.orig)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Slow path: regenerate the deployed program from the updated original
	// under the active plan. Entry propagation is a definitive change, not a
	// speculative optimization: no verification window, and a failed
	// redeploy fails the operation without counting toward the breaker.
	propagate := func() error { return r.deployNowLocked(r.activePlan) }
	if _, inCurrent := r.current.Tables[table]; inCurrent && !r.tableMergedLocked(table) {
		// Fast path. Keep the runtime's view of the deployed program in
		// sync so the next round's layout comparison does not force a
		// spurious swap (which would cold-start every cache).
		propagate = func() error {
			undoCurrent, err := op(r.current)
			if err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if err := fast(); err != nil {
				undoCurrent()
				return err
			}
			// current was edited in place; the next round recomputes.
			r.currentDigest = p4ir.Digest{}
			return nil
		}
	}
	if err := propagate(); err != nil {
		undo()
		return err
	}
	r.updCountsOrig[table]++
	return nil
}

// tableMergedLocked reports whether any merged (or merged-cache) table of
// the deployed program covers the given original table.
func (r *Runtime) tableMergedLocked(table string) bool {
	for merged := range r.cmap.MergedActions {
		if t, ok := r.current.Tables[merged]; ok && slices.Contains(strings.Split(t.Annotations[p4ir.AnnotCovers], ","), table) {
			return true
		}
	}
	return r.cmap.Removed[table]
}
