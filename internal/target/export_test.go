package target

// Remaining reports how many recorded responses are left per queue — a
// replay-driven test can assert it consumed the whole trace.
func (r *Replayer) Remaining() (measurements, profiles, cacheStats int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.trace.Measurements) - r.nextMeasure,
		len(r.trace.Profiles) - r.nextProfile,
		len(r.trace.CacheStats) - r.nextCaches
}
