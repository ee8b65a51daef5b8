package opt

// Helpers of the differential test, for its entry-churn half in the
// external test package (which imports internal/core, and core imports
// this package).
var (
	HitFlowsFor    = hitFlowsFor
	SnapshotPacket = snapshotPacket
	DiffSnapshots  = diffSnapshots
)
