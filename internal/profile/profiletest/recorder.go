// Package profiletest lets tests write a profile by site name. A
// Collector has one write path — a bound Layout, recorded into through a
// Burst — and a Recorder drives exactly that path, binding each site the
// first time a test names it.
package profiletest

import "pipeleon/internal/profile"

// Recorder records named events into a Collector. Every call is flushed
// before it returns, so a Snapshot taken between calls sees all of them.
// It rebinds the collector whenever a new site appears (Bind keeps the
// window's counts), so it must not share a collector with an emulator.
type Recorder struct {
	col      *profile.Collector
	layout   profile.Layout
	actions  map[profile.ActionSite]int
	branches map[string]int
	caches   map[string]int
	tables   map[string]int
	burst    *profile.Burst
}

// New returns a recorder writing into col.
func New(col *profile.Collector) *Recorder {
	r := &Recorder{
		col:      col,
		actions:  map[profile.ActionSite]int{},
		branches: map[string]int{},
		caches:   map[string]int{},
		tables:   map[string]int{},
	}
	r.bind()
	return r
}

// bind installs a copy of the layout (a bound Layout is immutable).
func (r *Recorder) bind() {
	l := profile.Layout{
		Actions:  append([]profile.ActionSite(nil), r.layout.Actions...),
		Branches: append([]string(nil), r.layout.Branches...),
		Caches:   append([]string(nil), r.layout.Caches...),
		Tables:   append([]string(nil), r.layout.Tables...),
	}
	r.burst = r.col.Bind(&l, 1)[0].NewBurst()
}

// slot returns the layout slot of site in sites, adding and binding it
// when new.
func slot[K comparable](r *Recorder, index map[K]int, sites *[]K, site K) int {
	i, ok := index[site]
	if !ok {
		i = len(*sites)
		index[site] = i
		*sites = append(*sites, site)
		r.bind()
	}
	return i
}

// Action counts one packet executing table/action.
func (r *Recorder) Action(table, action string) {
	i := slot(r, r.actions, &r.layout.Actions, profile.ActionSite{Table: table, Action: action})
	r.burst.IncAction(i)
	r.burst.Flush()
}

// Branch counts one conditional outcome.
func (r *Recorder) Branch(cond string, taken bool) {
	i := slot(r, r.branches, &r.layout.Branches, cond)
	r.burst.IncBranch(i, taken)
	r.burst.Flush()
}

// Cache counts a cache hit or miss.
func (r *Recorder) Cache(cache string, hit bool) {
	i := slot(r, r.caches, &r.layout.Caches, cache)
	r.burst.IncCache(i, hit)
	r.burst.Flush()
}

// Key notes a distinct key value observed at a table.
func (r *Recorder) Key(table string, key uint64) {
	i := slot(r, r.tables, &r.layout.Tables, table)
	r.burst.AddKey(i, key)
	r.burst.Flush()
}

// Flow notes a distinct flow key.
func (r *Recorder) Flow(key uint64) {
	r.burst.AddFlow(key)
	r.burst.Flush()
}
