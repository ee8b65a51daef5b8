package p4ir_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/synth"
)

// jsonRoundTrip is the program the JSON codec makes of p.
func jsonRoundTrip(t testing.TB, p *p4ir.Program) *p4ir.Program {
	t.Helper()
	q := &p4ir.Program{}
	if err := q.UnmarshalJSON(mustJSON(t, p)); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	return q
}

// checkAccepted holds the three properties of an input DecodeBinary
// accepted as p: it is the canonical encoding of p, so it carries p's
// digest, and p is what the JSON codec would have delivered.
func checkAccepted(t testing.TB, input []byte, p *p4ir.Program) {
	t.Helper()
	if again := p.AppendBinary(nil); !bytes.Equal(again, input) {
		t.Fatalf("accepted input does not re-encode to itself:\n in  %x\n out %x", input, again)
	}
	if p4ir.DigestOf(input) != p.Digest() {
		t.Fatal("DigestOf(input) != Digest() of the decoded program")
	}
	if q := jsonRoundTrip(t, p); !reflect.DeepEqual(p, q) {
		t.Fatalf("binary and JSON round trips differ:\n binary %+v\n json   %+v", p, q)
	}
}

func TestBinaryRoundTripEqualsJSONRoundTrip(t *testing.T) {
	full := fullyPopulated()
	full.Tables["t"].Unsupported, full.Tables["t"].Sticky = true, true
	full.Tables["t"].Entries[0].Priority = -3 // ints travel as their two's complement
	full.Tables["t"].Keys[0].Width = -1
	empties := fullyPopulated() // empty but non-nil: must decode as JSON's nil
	empties.Tables["u"].Keys = []p4ir.Key{}
	empties.Tables["u"].Entries = []p4ir.Entry{}
	empties.Tables["u"].ActionNext = map[string]string{}
	empties.Tables["u"].Annotations = map[string]string{}
	empties.Conds["c"].Expr, empties.Conds["c"].ReadFields = "true", []string{} // compares nothing, so reads nothing (P4S09)
	progs := []*p4ir.Program{p4ir.NewProgram("empty"), fullyPopulated(), full, empties, synth110()}
	for seed := uint64(0); seed < 8; seed++ {
		progs = append(progs, synth.Program(synth.ProgramSpec{
			Pipelets: 6, AvgLen: 3, Category: synth.Category(seed % 4), Seed: seed,
		}))
	}
	for _, p := range progs {
		enc := p.AppendBinary(nil)
		if p4ir.DigestOf(enc) != p.Digest() {
			t.Errorf("%s: Digest() is not the SHA-256 of AppendBinary", p.Name)
		}
		if withPrefix := p.AppendBinary([]byte("xy")); !bytes.Equal(withPrefix[2:], enc) || string(withPrefix[:2]) != "xy" {
			t.Errorf("%s: AppendBinary does not append", p.Name)
		}
		got, err := p4ir.DecodeBinary(enc)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		checkAccepted(t, enc, got)
		if got.Digest() != p.Digest() {
			t.Errorf("%s: digest changed across the codec", p.Name)
		}
	}
}

func TestDecodeBinaryEndsInValidate(t *testing.T) {
	p := fullyPopulated()
	p.Tables["t"].BaseNext = "nowhere"
	_, err := p4ir.DecodeBinary(p.AppendBinary(nil))
	if !errors.Is(err, p4ir.ErrDanglingRef) || errors.Is(err, p4ir.ErrBadEncoding) {
		t.Fatalf("dangling reference: err = %v, want the validator's ErrDanglingRef", err)
	}
}

// uv is a minimal uvarint.
func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func TestDecodeBinaryRejectsNonCanonicalInput(t *testing.T) {
	good := fullyPopulated().AppendBinary(nil)
	if _, err := p4ir.DecodeBinary(good); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := p4ir.DecodeBinary(good[:cut]); !errors.Is(err, p4ir.ErrBadEncoding) {
			t.Fatalf("prefix of %d/%d bytes: err = %v", cut, len(good), err)
		}
	}

	// name "p", root "", then the table count.
	head := []byte{1, 'p', 0}
	// A table with only a name, and a conditional with only a name.
	table := func(name string) []byte {
		return append(append(uv(uint64(len(name))), name...), make([]byte, 11)...)
	}
	cond := func(name string) []byte {
		return append(append(uv(uint64(len(name))), name...), make([]byte, 4)...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	huge := uv(1 << 50)

	cases := map[string][]byte{
		"trailing byte":          append(bytes.Clone(good), 0),
		"non-minimal varint":     cat([]byte{0x81, 0x00, 'p'}, []byte{0, 0, 0}),
		"overlong varint":        bytes.Repeat([]byte{0xff}, 11),
		"string past the end":    cat(huge, []byte("p")),
		"invalid UTF-8":          {1, 0xff, 0, 0, 0},
		"table count":            cat(head, huge),
		"tables out of order":    cat(head, uv(2), table("b"), table("a"), uv(0)),
		"duplicate table":        cat(head, uv(2), table("a"), table("a"), uv(0)),
		"conditionals reordered": cat(head, uv(0), uv(2), cond("b"), cond("a")),
		"cond count":             cat(head, uv(0), huge),
		"key count":              cat(head, uv(1), []byte{1, 't'}, huge, make([]byte, 64)),
		"match kind":             cat(head, uv(1), []byte{1, 't', 1, 1, 'f', 9, 0}, make([]byte, 10), uv(0)),
		"flag":                   cat(head, uv(1), []byte{1, 't', 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}, uv(0)),
		"map keys out of order":  cat(head, uv(1), []byte{1, 't', 0, 0, 0, 0, 2, 1, 'b', 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0}, uv(0)),
		"duplicate map key":      cat(head, uv(1), []byte{1, 't', 0, 0, 0, 0, 2, 1, 'a', 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0}, uv(0)),
		"entry count":            cat(head, uv(1), []byte{1, 't', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, huge, make([]byte, 64)),
	}
	for name, input := range cases {
		if _, err := p4ir.DecodeBinary(input); !errors.Is(err, p4ir.ErrBadEncoding) {
			t.Errorf("%s: err = %v, want ErrBadEncoding", name, err)
		}
	}
	// The hand-assembled layout above is right: the in-order variants decode.
	for name, input := range map[string][]byte{
		"tables in order": cat(head, uv(2), table("a"), table("b"), uv(0)),
		"conds in order":  cat(head, uv(0), uv(2), cond("a"), cond("b")),
	} {
		if _, err := p4ir.DecodeBinaryUnchecked(input); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// allocatedBy returns the heap bytes f allocated (with whatever the rest of
// the process allocated meanwhile, which for a test worker is next to
// nothing).
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what DecodeBinary may allocate for an input: the
// largest in-memory item per encoded byte is a map pair (two string headers
// and bucket overhead behind two length bytes), and a refused program pays
// for its validator diagnostics on top.
func decodeAllocBound(input []byte) uint64 { return 256*uint64(len(input)) + 64<<10 }

func TestDecodeBinaryHostileLengthsAllocateNothing(t *testing.T) {
	good := synth110().AppendBinary(nil)
	honest := allocatedBy(func() { p4ir.DecodeBinary(good) })
	if honest > decodeAllocBound(good) {
		t.Fatalf("decoding %d honest bytes allocated %d", len(good), honest)
	}
	// Overwrite each position in turn with a huge count: wherever it lands
	// — a string length, an entry count, a map size — it must be refused
	// before anything is sized by it, so the lie costs no more than the
	// honest input did.
	huge := uv(1 << 40)
	for at := 0; at+len(huge) < len(good); at += 7 {
		input := bytes.Clone(good)
		copy(input[at:], huge)
		var err error
		got := allocatedBy(func() { _, err = p4ir.DecodeBinary(input) })
		if err == nil || got > honest+16<<10 {
			t.Fatalf("huge count at byte %d: allocated %d against %d for the honest input (err %v)", at, got, honest, err)
		}
	}
}

// FuzzDecodeBinary feeds arbitrary bytes to the wire decoder. It never
// panics, allocates in proportion to its input, and whatever it accepts is
// the canonical encoding of a valid program: re-encoding reproduces the
// input, the input's hash is the program's digest, and the JSON codec
// agrees on the program.
func FuzzDecodeBinary(f *testing.F) {
	for _, s := range scriptSeeds {
		f.Add(scripted(s.seed, s.sa).AppendBinary(nil))
		f.Add(scripted(s.seed, s.sb).AppendBinary(nil))
	}
	f.Add(fullyPopulated().AppendBinary(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		var p *p4ir.Program
		var err error
		if got := allocatedBy(func() { p, err = p4ir.DecodeBinary(input) }); got > decodeAllocBound(input) {
			t.Fatalf("decoding %d bytes allocated %d", len(input), got)
		}
		if err != nil {
			if p != nil {
				t.Fatal("program returned beside an error")
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted an invalid program: %v", err)
		}
		checkAccepted(t, input, p)
	})
}
