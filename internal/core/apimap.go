package core

import (
	"fmt"

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

// InsertEntry adds an entry to a table of the *original* program and
// propagates the change to the deployed layout.
func (r *Runtime) InsertEntry(table string, e p4ir.Entry) error {
	return r.entryOp(table, func(t *p4ir.Table) error {
		if len(e.Match) != len(t.Keys) {
			return fmt.Errorf("core: entry arity %d != %d keys", len(e.Match), len(t.Keys))
		}
		if t.Action(e.Action) == nil {
			return fmt.Errorf("core: unknown action %q", e.Action)
		}
		t.Entries = append(t.Entries, e.Clone())
		return nil
	}, func() error {
		return r.tgt.InsertEntry(table, e)
	})
}

// DeleteEntry removes the first entry with equal match values.
func (r *Runtime) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return r.entryOp(table, func(t *p4ir.Table) error {
		for i := range t.Entries {
			if matchEqual(t.Entries[i].Match, match) {
				t.Entries = append(t.Entries[:i], t.Entries[i+1:]...)
				return nil
			}
		}
		return fmt.Errorf("core: no entry matching %v in %q", match, table)
	}, func() error {
		return r.tgt.DeleteEntry(table, match)
	})
}

// ModifyEntry rewrites the action/args of the first matching entry.
func (r *Runtime) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return r.entryOp(table, func(t *p4ir.Table) error {
		if t.Action(action) == nil {
			return fmt.Errorf("core: unknown action %q", action)
		}
		for i := range t.Entries {
			if matchEqual(t.Entries[i].Match, match) {
				t.Entries[i].Action = action
				t.Entries[i].Args = append([]string(nil), args...)
				return nil
			}
		}
		return fmt.Errorf("core: no entry matching %v in %q", match, table)
	}, func() error {
		return r.tgt.ModifyEntry(table, match, action, args)
	})
}

func matchEqual(a, b []p4ir.MatchValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// entryOp applies origMut to the original program, then propagates: fast
// path when the table exists untouched in the deployed program, slow path
// (plan re-application + swap) when a merge consumed it.
func (r *Runtime) entryOp(table string, origMut func(*p4ir.Table) error, fast func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	ot, ok := r.orig.Tables[table]
	if !ok {
		return fmt.Errorf("core: no table %q in original program", table)
	}
	if err := origMut(ot); err != nil {
		return err
	}
	r.updCountsOrig[table]++
	// r.orig is the search session's program: its semantic proofs were
	// computed from the entries as they were.
	r.search.EntriesChanged()

	ct, inCurrent := r.current.Tables[table]
	mergedCover := r.tableMergedLocked(table)
	if inCurrent && !mergedCover {
		// Keep the runtime's view of the deployed program in sync so the
		// next round's layout comparison does not force a spurious swap
		// (which would cold-start every cache).
		if err := origMut(ct); err != nil {
			return err
		}
		return fast()
	}
	// Slow path: regenerate the deployed program from the updated
	// original under the active plan.
	return r.redeployLocked()
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
// committed immediately with no verification window.
func (r *Runtime) redeployLocked() error {
	plan := r.planLocked()
	if len(plan) == 0 {
		r.current = r.orig.Clone()
		r.cmap = opt.NewCounterMap()
		return r.deployCommitLocked()
	}
	rw, err := opt.Apply(r.orig, plan, r.cfg)
	if err != nil {
		// The plan no longer applies (e.g. entries changed shape);
		// fall back to the original program and let the next round
		// re-optimize.
		r.current = r.orig.Clone()
		r.cmap = opt.NewCounterMap()
		r.activePlan = nil
		return r.deployCommitLocked()
	}
	r.current = rw.Program
	r.cmap = rw.Map
	return r.deployCommitLocked()
}

func (r *Runtime) deployCommitLocked() error {
	if err := r.tgt.Deploy(r.current); err != nil {
		return err
	}
	return r.tgt.Commit()
}
