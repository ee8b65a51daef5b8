package p4ir

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest identifies a program by content: the SHA-256 of its canonical
// binary form (AppendBinary). Two programs have equal digests exactly when
// their JSON is byte-equal — nil and empty slices or maps collapse the way
// omitempty collapses them — so the digest stands in for byte equality when
// the runtime decides whether a layout changed, keys the memos that let a
// proof or a gate verdict be reused, and is how the two ends of the control
// plane agree that a program need not cross the wire again. All of these
// skip work on a match, which is why this is a cryptographic hash and not a
// 64-bit fold.
type Digest [sha256.Size]byte

// String returns the digest in hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// DigestOf returns the digest of a program from its binary form: whoever
// holds the encoding has the digest for one hash pass.
func DigestOf(encoded []byte) Digest { return sha256.Sum256(encoded) }

// Digest computes the program's content digest, DigestOf(p.AppendBinary(nil))
// without materializing the encoding. It is computed on demand and never
// cached in the program: every field is exported and mutated in place by
// its owners, so whoever needs a stored digest stores it next to the
// pointer and clears it on its own writes.
func (p *Program) Digest() Digest {
	var window [1024]byte
	w := binWriter{buf: window[:0], h: sha256.New()}
	w.program(p)
	w.flush()
	var d Digest
	w.h.Sum(d[:0])
	return d
}

// BodyHasher computes body digests, which identify what a table matches
// and does: the SHA-256 of its keys, actions, default action and entries,
// written as the program walk writes them. The name, successors, size,
// placement and annotations are left out, so two tables with equal body
// digests look up and act alike wherever they sit. Like Digest, a body
// digest is computed from the current contents on every call, so an entry
// edited in place changes it. One hasher digests table after table with
// one hash state and buffer; the zero value is ready to use. Not safe for
// concurrent use.
type BodyHasher struct {
	w      binWriter
	window [1024]byte
}

// Digest returns t's body digest.
func (h *BodyHasher) Digest(t *Table) Digest {
	if h.w.h == nil {
		h.w.h = sha256.New()
	} else {
		h.w.h.Reset()
	}
	h.w.buf = h.window[:0]
	h.w.lookup(t)
	h.w.entries(t)
	h.w.flush()
	var d Digest
	h.w.h.Sum(d[:0])
	return d
}
