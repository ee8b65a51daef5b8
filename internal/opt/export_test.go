package opt

import (
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
)

// Helpers of the differential test, for its entry-churn half in the
// external test package (which imports internal/core, and core imports
// this package).
var (
	HitFlowsFor    = hitFlowsFor
	SnapshotPacket = snapshotPacket
	DiffSnapshots  = diffSnapshots
)

// LocalOptimize enumerates and scores all candidates for one pipelet
// (Figure 16, LocalOptimize). The returned options are sorted by gain
// descending, truncated to maxOptionsPerPipelet, and exclude
// candidates with non-positive gain (the implicit "do nothing" option is
// always available to the global search). One-shot: a Session keeps the
// skeleton.
func (ev *Evaluator) LocalOptimize(p *pipelet.Pipelet) []*Option {
	return ev.price(newSkeleton(ev, p))
}

// withCaps makes s search under other bounds than the package's constants:
// it edits those of the session's cost view, built here under an empty
// profile and refreshed by the first Search.
func (s *Session) withCaps(edit func(*searchCaps)) *Session {
	edit(&s.view(profile.New()).caps)
	return s
}
