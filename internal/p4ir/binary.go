package p4ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"
	"unicode/utf8"
)

// The binary form of a program is the control plane's wire codec and the
// preimage of its content digest: one canonical walk over every field
// MarshalJSON serializes, in the order MarshalJSON serializes it (tables
// and conditionals sorted by map key, ActionNext and Annotations by their
// keys, entries in installed order). Every variable-length item is
// length-prefixed and every number is a minimal (prefix-free) uvarint, so
// distinct field sequences encode distinctly, and nil and empty slices or
// maps both encode as a zero count — the way omitempty collapses them.
//
// Coverage rule: a field added to Program, Table, Key, Action, Primitive,
// Entry, MatchValue or Conditional is added to binWriter's walk, to
// DecodeBinary and to MarshalJSON in the same change;
// TestDigestCoversEveryField fails until it is.

// AppendBinary appends the program's canonical binary form to dst and
// returns the extended slice. DigestOf of exactly these bytes is Digest().
func (p *Program) AppendBinary(dst []byte) []byte {
	w := binWriter{buf: dst}
	w.program(p)
	return w.buf
}

// binWriter is the sink of the walk. With h nil, buf grows to hold the
// whole encoding; with h set, buf is a fixed window flushed into the hash
// whenever it fills, so a digest never materializes the encoding.
type binWriter struct {
	buf []byte
	h   hash.Hash
}

func (w *binWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

// u64 is small enough to inline: nearly every number of a program is a
// count, a length, a flag or a priority that fits one byte, and nearly
// always the buffer has a byte to spare.
func (w *binWriter) u64(v uint64) {
	if v < 0x80 && len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, byte(v))
	} else {
		w.u64Slow(v)
	}
}

func (w *binWriter) u64Slow(v uint64) {
	if w.h != nil && len(w.buf)+binary.MaxVarintLen64 > cap(w.buf) {
		w.flush()
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *binWriter) num(v int) { w.u64(uint64(v)) }

func (w *binWriter) flag(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *binWriter) str(s string) {
	w.num(len(s))
	if w.h == nil {
		w.buf = append(w.buf, s...)
		return
	}
	for len(s) > 0 {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		c := copy(w.buf[len(w.buf):cap(w.buf)], s)
		w.buf = w.buf[:len(w.buf)+c]
		s = s[c:]
	}
}

func (w *binWriter) strs(ss []string) {
	w.num(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *binWriter) strMap(m map[string]string) {
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

func (w *binWriter) program(p *Program) {
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
}

func (w *binWriter) table(t *Table) {
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

// ErrBadEncoding is wrapped by every error DecodeBinary returns for bytes
// that are not the canonical binary form of a program (as opposed to a
// well-formed encoding of a program that fails Validate).
var ErrBadEncoding = errors.New("p4ir: malformed binary program")

// DecodeBinary is the inverse of AppendBinary and, like UnmarshalJSON,
// ends in Validate. It accepts only the canonical form — minimal varints,
// nodes and map keys strictly ascending, no trailing bytes — so an accepted
// input re-encodes to itself and DigestOf(data) is the program's Digest().
// Every count is checked against the bytes that remain before anything is
// allocated for it, so memory is bounded by len(data) whatever the lengths
// inside claim. Empty slices and maps decode as nil, strings must be valid
// UTF-8: the result is the program a JSON round trip would have produced.
func DecodeBinary(data []byte) (*Program, error) {
	p, err := decodeBinary(data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func decodeBinary(data []byte) (*Program, error) {
	r := binReader{b: data}
	p := NewProgram(r.str())
	p.Root = r.str()

	prev := ""
	for i, n := 0, r.count(minTableBytes); i < n && r.err == nil; i++ {
		t := r.table()
		r.ascending(i, prev, t.Name, "table")
		prev = t.Name
		p.Tables[t.Name] = t
	}
	prev = ""
	for i, n := 0, r.count(minCondBytes); i < n && r.err == nil; i++ {
		c := &Conditional{Name: r.str(), Expr: r.str(), TrueNext: r.str(), FalseNext: r.str(), ReadFields: r.strs()}
		r.ascending(i, prev, c.Name, "conditional")
		prev = c.Name
		p.Conds[c.Name] = c
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return p, nil
}

// The fewest bytes one item of each repeated kind can occupy; count divides
// the remaining input by them to bound a claimed length.
const (
	minStrBytes   = 1                 // length
	minPairBytes  = 2 * minStrBytes   // key, value
	minKeyBytes   = minStrBytes + 2   // field, kind, width
	minPrimBytes  = minStrBytes + 1   // op, arg count
	minActBytes   = minStrBytes + 1   // name, primitive count
	minMatchBytes = 3                 // value, prefix length, mask
	minEntryBytes = 3 + minStrBytes   // priority, match count, action, arg count
	minTableBytes = 3*minStrBytes + 9 // three strings, five counts, four scalars
	minCondBytes  = 4*minStrBytes + 1 // four strings, read-field count
)

// binReader consumes the encoding front to back. The first malformation
// sticks in err and every later read returns a zero value, so the decoder
// reads as straight-line code.
type binReader struct {
	b   []byte
	err error
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadEncoding, fmt.Sprintf(format, args...))
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.fail("truncated or overlong varint")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail("varint is not minimal")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// num reads an int the walk wrote as uint64(int): negative values come
// back negative.
func (r *binReader) num() int { return int(r.u64()) }

func (r *binReader) flag() bool {
	v := r.u64()
	if v > 1 {
		r.fail("flag is %d", v)
	}
	return v == 1
}

// count reads the length of a sequence whose items occupy at least each
// bytes apiece and refuses one the remaining input cannot hold.
func (r *binReader) count(each int) int {
	v := r.u64()
	if v > uint64(len(r.b)/each) {
		r.fail("count %d exceeds the %d bytes that remain", v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *binReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	if !utf8.ValidString(s) {
		r.fail("a %d-byte string is not UTF-8", n)
	}
	return s
}

func (r *binReader) strs() []string {
	n := r.count(minStrBytes)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

// ascending requires the i-th name of a sorted sequence to follow its
// predecessor strictly, which also rules out duplicates.
func (r *binReader) ascending(i int, prev, name, what string) {
	if i > 0 && name <= prev {
		r.fail("%s %q after %q: not in ascending order", what, name, prev)
	}
}

func (r *binReader) strMap() map[string]string {
	n := r.count(minPairBytes)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	prev := ""
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		r.ascending(i, prev, k, "map key")
		prev = k
		m[k] = r.str()
	}
	return m
}

func (r *binReader) table() *Table {
	t := &Table{Name: r.str()}
	if n := r.count(minKeyBytes); n > 0 {
		t.Keys = make([]Key, n)
		for i := range t.Keys {
			k := &t.Keys[i]
			k.Field = r.str()
			kind := r.u64()
			if kind >= uint64(len(matchKindNames)) {
				r.fail("table %q: unknown match kind %d", t.Name, kind)
			}
			k.Kind = MatchKind(kind)
			k.Width = r.num()
		}
	}
	if n := r.count(minActBytes); n > 0 {
		t.Actions = make([]*Action, n)
		for i := range t.Actions {
			a := &Action{Name: r.str()}
			if np := r.count(minPrimBytes); np > 0 {
				a.Primitives = make([]Primitive, np)
				for j := range a.Primitives {
					a.Primitives[j] = Primitive{Op: r.str(), Args: r.strs()}
				}
			}
			t.Actions[i] = a
		}
	}
	t.DefaultAction = r.str()
	t.BaseNext = r.str()
	t.ActionNext = r.strMap()
	t.MaxEntries = r.num()
	t.Unsupported = r.flag()
	t.MinTier = r.num()
	t.Sticky = r.flag()
	t.Annotations = r.strMap()
	if n := r.count(minEntryBytes); n > 0 {
		t.Entries = make([]Entry, n)
		for i := range t.Entries {
			e := &t.Entries[i]
			e.Priority = r.num()
			if nm := r.count(minMatchBytes); nm > 0 {
				e.Match = make([]MatchValue, nm)
				for j := range e.Match {
					e.Match[j] = MatchValue{Value: r.u64(), PrefixLen: r.num(), Mask: r.u64()}
				}
			}
			e.Action = r.str()
			e.Args = r.strs()
		}
	}
	return t
}
