package core

import (
	"fmt"
	"slices"

	"pipeleon/internal/opt"
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
// the runtime re-applies the active plan against the updated original and
// swaps the result in, which is exactly the I(T_A)·N(T_B) update
// amplification the cost model charges merges for (§3.2.3).

// plan returns the currently deployed plan (options applied to orig).
func (r *Runtime) planLocked() []*opt.Option { return r.activePlan }

// entryMut applies one entry operation to a table and returns how to take
// it back; an operation it refuses leaves the table untouched, and its undo
// is not to be called.
type entryMut func(t *p4ir.Table) (undo func(), err error)

// InsertEntry adds an entry to a table of the *original* program and
// propagates the change to the deployed layout.
func (r *Runtime) InsertEntry(table string, e p4ir.Entry) error {
	return r.entryOp(table, func(t *p4ir.Table) (func(), error) {
		err := t.InsertEntry(e)
		return func() { t.Entries = slices.Delete(t.Entries, len(t.Entries)-1, len(t.Entries)) }, err
	}, func() error {
		return r.tgt.InsertEntry(table, e)
	})
}

// DeleteEntry removes the first entry with equal match values.
func (r *Runtime) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return r.entryOp(table, func(t *p4ir.Table) (func(), error) {
		i, gone, err := t.DeleteEntry(match)
		return func() { t.Entries = slices.Insert(t.Entries, i, gone) }, err
	}, func() error {
		return r.tgt.DeleteEntry(table, match)
	})
}

// ModifyEntry rewrites the action/args of the first matching entry.
func (r *Runtime) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return r.entryOp(table, func(t *p4ir.Table) (func(), error) {
		i, was, err := t.ModifyEntry(match, action, args)
		return func() { t.Entries[i] = was }, err
	}, func() error {
		return r.tgt.ModifyEntry(table, match, action, args)
	})
}

// entryOp applies mut to the original program, then propagates: fast path
// when the table exists untouched in the deployed program, slow path (plan
// re-application + swap) when a merge consumed it. The operation is one
// transaction: both views validate before the device is asked, and when the
// device refuses (table full, RPC failure, failed redeploy) both views are
// put back, so the runtime never believes in an entry the device does not
// hold — the next redeploy would silently install it.
func (r *Runtime) entryOp(table string, mut entryMut, fast func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ot, ok := r.orig.Tables[table]
	if !ok {
		return fmt.Errorf("core: no table %q in original program", table)
	}
	undo, err := mut(ot)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// Slow path: regenerate the deployed program from the updated original
	// under the active plan.
	propagate := r.redeployLocked
	if ct, inCurrent := r.current.Tables[table]; inCurrent && !r.tableMergedLocked(table) {
		// Fast path. Keep the runtime's view of the deployed program in
		// sync so the next round's layout comparison does not force a
		// spurious swap (which would cold-start every cache).
		propagate = func() error {
			undoCurrent, err := mut(ct)
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
	// r.orig is the verifier's original: the gate's verdicts and the
	// proofs behind them were computed from the entries as they were.
	r.gate.EntriesChanged()
	return nil
}

// tableMergedLocked reports whether any merged (or merged-cache) table of
// the deployed program covers the given original table.
func (r *Runtime) tableMergedLocked(table string) bool {
	for merged := range r.cmap.MergedActions {
		if t, ok := r.current.Tables[merged]; ok {
			covers := t.Annotations[p4ir.AnnotCovers]
			if covers == "" {
				continue
			}
			for _, c := range splitCovers(covers) {
				if c == table {
					return true
				}
			}
		}
	}
	return r.cmap.Removed[table]
}

func splitCovers(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// redeployLocked re-applies the active plan to the (updated) original
// program and deploys the result to the target. Entry propagation is a
// definitive change, not a speculative optimization, so the deploy is
// committed immediately with no verification window. The runtime's view of
// the deployed layout moves only once the device has taken it.
func (r *Runtime) redeployLocked() error {
	next, cmap, plan := r.orig.Clone(), opt.NewCounterMap(), r.planLocked()
	if len(plan) > 0 {
		// When the plan no longer applies (e.g. entries changed shape),
		// fall back to the original program and let the next round
		// re-optimize.
		if rw, err := opt.Apply(r.orig, plan, r.cfg); err == nil {
			next, cmap = rw.Program, rw.Map
		} else {
			plan = nil
		}
	}
	if err := r.tgt.Deploy(next); err != nil {
		return err
	}
	if err := r.tgt.Commit(); err != nil {
		// The device holds next uncommitted; put the checkpoint back so it
		// agrees with the view this error leaves in place.
		_ = r.tgt.Rollback() // best effort: the commit error is the one to report
		return err
	}
	r.setCurrentLocked(next, p4ir.Digest{}, cmap, plan)
	return nil
}
