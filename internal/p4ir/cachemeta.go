package p4ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Cache metadata annotations. Pipeleon's rewrites emit cache and merged
// tables into the optimized program; the SmartNIC backend (our emulator)
// discovers them through these annotations, mirroring how the paper's
// prototype communicates cache directives to the target toolchain.
const (
	// AnnotKind marks a generated table: "cache", "merged_cache", or
	// "merged".
	AnnotKind = "pipeleon.kind"
	// AnnotCovers lists the covered original tables (comma separated, in
	// order) for cache / merged_cache tables.
	AnnotCovers = "pipeleon.covers"
	// AnnotBudget is the cache entry budget (LRU capacity).
	AnnotBudget = "pipeleon.budget"
	// AnnotInsertLimit is the cache insertion rate limit (entries/second).
	AnnotInsertLimit = "pipeleon.insert_limit"
	// AnnotHitNext / AnnotMissNext are the successors on cache hit / miss.
	AnnotHitNext  = "pipeleon.hit_next"
	AnnotMissNext = "pipeleon.miss_next"
	// AnnotMemTier places a table in a memory tier ("sram" or "emem").
	// Hierarchical-memory support is the paper's §6 future-work item: on
	// NICs that let P4 pin tables to faster memories, probe latency
	// drops for pinned tables at the cost of a small fast-memory budget.
	AnnotMemTier = "pipeleon.mem_tier"
)

// Memory tiers.
const (
	// TierEMEM is the default external memory (the Netronome compiler
	// "places all P4 tables into the external memory", §6).
	TierEMEM = "emem"
	// TierSRAM is the fast on-chip tier.
	TierSRAM = "sram"
)

// MemTier returns the table's memory tier (TierEMEM when unset).
func (t *Table) MemTier() string {
	if t.Annotations[AnnotMemTier] == TierSRAM {
		return TierSRAM
	}
	return TierEMEM
}

// SetMemTier pins the table to a tier.
func (t *Table) SetMemTier(tier string) {
	if t.Annotations == nil {
		t.Annotations = map[string]string{}
	}
	t.Annotations[AnnotMemTier] = tier
}

// Table kinds stored under AnnotKind.
const (
	KindCache       = "cache"        // runtime-filled flow cache (§3.2.2)
	KindMergedCache = "merged_cache" // pre-populated merge-result cache (§3.2.3)
	KindMerged      = "merged"       // in-place ternary merge (§3.2.3)
)

// CacheSpec is the decoded cache directive of a generated cache table.
type CacheSpec struct {
	// Table is the cache table's name.
	Table string
	// Kind is KindCache or KindMergedCache.
	Kind string
	// Covers are the original tables the cache short-circuits, in order.
	Covers []string
	// HitNext / MissNext are the successors on hit / miss.
	HitNext  string
	MissNext string
	// Budget is the LRU capacity in entries (0 = unbounded).
	Budget int
	// InsertLimit caps runtime insertions per second (0 = unlimited).
	// Insertions beyond the limit are dropped (§3.2.2).
	InsertLimit float64
	// Prepopulated caches (merged_cache) carry their entries in the IR
	// and never install at runtime.
	Prepopulated bool
}

// SetCacheMeta writes the spec onto the table's annotations.
func (t *Table) SetCacheMeta(spec CacheSpec) {
	if t.Annotations == nil {
		t.Annotations = map[string]string{}
	}
	t.Annotations[AnnotKind] = spec.Kind
	t.Annotations[AnnotCovers] = strings.Join(spec.Covers, ",")
	t.Annotations[AnnotHitNext] = spec.HitNext
	t.Annotations[AnnotMissNext] = spec.MissNext
	t.Annotations[AnnotBudget] = strconv.Itoa(spec.Budget)
	t.Annotations[AnnotInsertLimit] = strconv.FormatFloat(spec.InsertLimit, 'g', -1, 64)
}

// CacheMeta decodes the cache spec from a table's annotations. ok is false
// for ordinary tables.
func (t *Table) CacheMeta() (CacheSpec, bool) {
	kind := t.Annotations[AnnotKind]
	if kind != KindCache && kind != KindMergedCache {
		return CacheSpec{}, false
	}
	spec := CacheSpec{
		Table:        t.Name,
		Kind:         kind,
		HitNext:      t.Annotations[AnnotHitNext],
		MissNext:     t.Annotations[AnnotMissNext],
		Prepopulated: kind == KindMergedCache,
	}
	if c := t.Annotations[AnnotCovers]; c != "" {
		spec.Covers = strings.Split(c, ",")
	}
	if b, err := strconv.Atoi(t.Annotations[AnnotBudget]); err == nil {
		spec.Budget = b
	}
	if l, err := strconv.ParseFloat(t.Annotations[AnnotInsertLimit], 64); err == nil {
		spec.InsertLimit = l
	}
	return spec, true
}

// GeneratedName builds a deterministic name for a generated table from its
// kind and the covered span.
func GeneratedName(kind string, covers []string) string {
	return fmt.Sprintf("__%s__%s", kind, strings.Join(covers, "__"))
}
