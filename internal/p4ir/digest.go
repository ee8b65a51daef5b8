package p4ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
)

// Digest identifies a program by content: the SHA-256 of a canonical
// binary walk over every field MarshalJSON serializes, in the order
// MarshalJSON serializes it (tables and conditionals sorted by map key,
// ActionNext and Annotations by their keys, entries in installed order).
// Two programs have equal digests exactly when their JSON is byte-equal —
// nil and empty slices or maps collapse the way omitempty collapses them —
// so the digest stands in for byte equality when the runtime decides
// whether a layout changed, and keys the memos that let a proof or a gate
// verdict be reused. Both uses skip work on a match, which is why this is
// a cryptographic hash and not a 64-bit fold.
//
// Coverage rule: a field added to Program, Table, Key, Action, Primitive,
// Entry, MatchValue or Conditional is added here and to MarshalJSON in
// the same change; TestDigestCoversEveryField fails until it is.
type Digest [sha256.Size]byte

// String returns the digest in hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Digest computes the program's content digest. It is computed on demand
// and never cached in the program: every field is exported and mutated in
// place by its owners, so whoever needs a stored digest stores it next to
// the pointer and clears it on its own writes.
func (p *Program) Digest() Digest {
	w := digestWriter{h: sha256.New()}
	w.str(p.Name)
	w.str(p.Root)

	names := make([]string, 0, max(len(p.Tables), len(p.Conds)))
	for n := range p.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	w.num(len(names))
	for _, n := range names {
		w.table(p.Tables[n])
	}

	names = names[:0]
	for n := range p.Conds {
		names = append(names, n)
	}
	sort.Strings(names)
	w.num(len(names))
	for _, n := range names {
		c := p.Conds[n]
		w.str(c.Name)
		w.str(c.Expr)
		w.str(c.TrueNext)
		w.str(c.FalseNext)
		w.strs(c.ReadFields)
	}

	w.flush()
	var d Digest
	w.h.Sum(d[:0])
	return d
}

// digestWriter batches the walk's small writes in front of the hash.
// Every variable-length item is length-prefixed and every number is a
// (prefix-free) uvarint, so distinct field sequences encode distinctly.
type digestWriter struct {
	h   hash.Hash
	n   int
	buf [1024]byte
}

func (w *digestWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *digestWriter) u64(v uint64) {
	if w.n+binary.MaxVarintLen64 > len(w.buf) {
		w.flush()
	}
	w.n += binary.PutUvarint(w.buf[w.n:], v)
}

func (w *digestWriter) num(v int) { w.u64(uint64(v)) }

func (w *digestWriter) flag(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *digestWriter) str(s string) {
	w.num(len(s))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}

func (w *digestWriter) strs(ss []string) {
	w.num(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *digestWriter) strMap(m map[string]string) {
	w.num(len(m))
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.str(k)
		w.str(m[k])
	}
}

func (w *digestWriter) table(t *Table) {
	w.str(t.Name)
	w.num(len(t.Keys))
	for _, k := range t.Keys {
		w.str(k.Field)
		w.num(int(k.Kind))
		w.num(k.Width)
	}
	w.num(len(t.Actions))
	for _, a := range t.Actions {
		w.str(a.Name)
		w.num(len(a.Primitives))
		for _, prim := range a.Primitives {
			w.str(prim.Op)
			w.strs(prim.Args)
		}
	}
	w.str(t.DefaultAction)
	w.str(t.BaseNext)
	w.strMap(t.ActionNext)
	w.num(t.MaxEntries)
	w.flag(t.Unsupported)
	w.num(t.MinTier)
	w.flag(t.Sticky)
	w.strMap(t.Annotations)
	w.num(len(t.Entries))
	for i := range t.Entries {
		e := &t.Entries[i]
		w.num(e.Priority)
		w.num(len(e.Match))
		for _, m := range e.Match {
			w.u64(m.Value)
			w.num(m.PrefixLen)
			w.u64(m.Mask)
		}
		w.str(e.Action)
		w.strs(e.Args)
	}
}
