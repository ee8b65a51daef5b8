package p4ir_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
)

// The digest's contract is one sentence — equal digests exactly when the
// JSON is byte-equal — and three tests hold it: a scripted mutator run
// from random scripts (and from the fuzzer) checks the equivalence on
// synthesized programs, Clone must preserve it, and a reflection walk
// over every field of every IR struct fails the day someone adds a field
// the walk in binary.go — the digest's preimage and the wire codec — does
// not reach, or that DecodeBinary does not read back.

func mustJSON(t testing.TB, p *p4ir.Program) []byte {
	t.Helper()
	js, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// script is a byte string read as a stream of small choices; it is what
// the fuzzer mutates and what the property test draws at random. An
// exhausted script answers 0.
type script struct {
	b []byte
	i int
}

func (s *script) pick(n int) int {
	if n <= 0 || s.i >= len(s.b) {
		return 0
	}
	v := int(s.b[s.i]) % n
	s.i++
	return v
}

func (s *script) done() bool { return s.i >= len(s.b) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mutate applies one scripted single-field edit to p. Some edits change
// the JSON (a field value, an entry inserted, deleted or moved, a map key)
// and some provably do not (nil against empty, a value written back, two
// equal entries swapped); the property under test must hold for both.
func mutate(p *p4ir.Program, s *script) {
	tnames, cnames := sortedKeys(p.Tables), sortedKeys(p.Conds)
	var t *p4ir.Table
	if len(tnames) > 0 {
		t = p.Tables[tnames[s.pick(len(tnames))]]
	}
	var c *p4ir.Conditional
	if len(cnames) > 0 {
		c = p.Conds[cnames[s.pick(len(cnames))]]
	}
	tag := fmt.Sprintf("~%d", s.pick(3))
	const ops = 38
	op := s.pick(ops)
	if t == nil || (c == nil && op >= 31 && op <= 35) {
		op = op % 2
	}
	switch op {
	case 0:
		p.Name += tag
	case 1:
		p.Root += tag
	case 2:
		t.Name += tag
	case 3:
		t.DefaultAction += tag
	case 4:
		t.BaseNext += tag
	case 5:
		t.MaxEntries += 1 + s.pick(3)
	case 6:
		t.Unsupported = !t.Unsupported
	case 7:
		t.MinTier += 1 + s.pick(2)
	case 8:
		t.Sticky = !t.Sticky
	case 9:
		if len(t.Keys) > 0 {
			k := &t.Keys[s.pick(len(t.Keys))]
			switch s.pick(3) {
			case 0:
				k.Field += tag
			case 1:
				k.Kind = p4ir.MatchKind(int(k.Kind)+1+s.pick(5)) - 2 // out of range too
			case 2:
				k.Width += 1 + s.pick(8)
			}
		}
	case 10:
		t.Keys = append(t.Keys, p4ir.Key{Field: "meta.k" + tag, Kind: p4ir.MatchKind(s.pick(4)), Width: s.pick(33)})
	case 11:
		if len(t.Actions) > 0 {
			a := t.Actions[s.pick(len(t.Actions))]
			switch s.pick(4) {
			case 0:
				a.Name += tag
			case 1:
				a.Primitives = append(a.Primitives, p4ir.Prim("add", "meta.x", tag))
			case 2:
				if len(a.Primitives) > 0 {
					a.Primitives[s.pick(len(a.Primitives))].Op += tag
				}
			case 3:
				if len(a.Primitives) > 0 {
					pr := &a.Primitives[s.pick(len(a.Primitives))]
					pr.Args = append(pr.Args[:len(pr.Args):len(pr.Args)], tag)
				}
			}
		}
	case 12:
		if n := len(t.Actions); n > 1 {
			i, j := s.pick(n), s.pick(n)
			t.Actions[i], t.Actions[j] = t.Actions[j], t.Actions[i]
		}
	case 13:
		if t.ActionNext == nil {
			t.ActionNext = map[string]string{}
		}
		t.ActionNext["a"+tag] = "n" + tag
	case 14:
		if keys := sortedKeys(t.ActionNext); len(keys) > 0 {
			k := keys[s.pick(len(keys))]
			if s.pick(2) == 0 {
				delete(t.ActionNext, k)
			} else {
				t.ActionNext[k] += tag
			}
		}
	case 15:
		if t.Annotations == nil {
			t.Annotations = map[string]string{}
		}
		t.Annotations["pipeleon.k"+tag] = "v" + tag
	case 16:
		if keys := sortedKeys(t.Annotations); len(keys) > 0 {
			k := keys[s.pick(len(keys))]
			if s.pick(2) == 0 {
				delete(t.Annotations, k)
			} else {
				t.Annotations[k] += tag
			}
		}
	case 17: // entry insert at any position
		e := p4ir.Entry{Priority: s.pick(4), Action: "act" + tag}
		for range t.Keys {
			e.Match = append(e.Match, p4ir.MatchValue{Value: uint64(s.pick(256)), PrefixLen: s.pick(33), Mask: uint64(s.pick(256))})
		}
		at := s.pick(len(t.Entries) + 1)
		t.Entries = append(t.Entries[:at:at], append([]p4ir.Entry{e}, t.Entries[at:]...)...)
	case 18: // entry delete
		if n := len(t.Entries); n > 0 {
			at := s.pick(n)
			t.Entries = append(t.Entries[:at:at], t.Entries[at+1:]...)
		}
	case 19: // entry reorder (a no-op when the two are equal)
		if n := len(t.Entries); n > 1 {
			i, j := s.pick(n), s.pick(n)
			t.Entries[i], t.Entries[j] = t.Entries[j], t.Entries[i]
		}
	case 20:
		if n := len(t.Entries); n > 0 {
			e := &t.Entries[s.pick(n)]
			switch s.pick(4) {
			case 0:
				e.Priority += 1 + s.pick(3)
			case 1:
				e.Action += tag
			case 2:
				e.Args = append(e.Args[:len(e.Args):len(e.Args)], tag)
			case 3:
				e.Match = append(e.Match[:len(e.Match):len(e.Match)], p4ir.MatchValue{Value: 1})
			}
		}
	case 21:
		if n := len(t.Entries); n > 0 {
			if e := &t.Entries[s.pick(n)]; len(e.Match) > 0 {
				e.Match = append([]p4ir.MatchValue(nil), e.Match...)
				m := &e.Match[s.pick(len(e.Match))]
				switch s.pick(3) {
				case 0:
					m.Value ^= 1 << s.pick(64)
				case 1:
					m.PrefixLen += 1 + s.pick(8)
				case 2:
					m.Mask ^= 1 << s.pick(64)
				}
			}
		}
	case 22: // duplicate an entry, so that a later reorder can be a no-op
		if n := len(t.Entries); n > 0 {
			t.Entries = append(t.Entries[:n:n], t.Entries[s.pick(n)].Clone())
		}
	case 23: // move a table to another map key: JSON order may change, content does not
		for k, v := range p.Tables {
			if v == t {
				delete(p.Tables, k)
				p.Tables[k+tag] = t
				break
			}
		}
	case 24:
		for k, v := range p.Tables {
			if v == t && len(p.Tables) > 1 {
				delete(p.Tables, k)
				break
			}
		}
	case 25:
		p.Tables["new"+tag] = &p4ir.Table{Name: "new" + tag}
	// JSON-neutral edits: nil against empty, a value written back.
	case 26:
		if len(t.ActionNext) == 0 {
			t.ActionNext = map[string]string{}
		}
		if len(t.Annotations) == 0 {
			t.Annotations = nil
		}
	case 27:
		if len(t.Entries) == 0 {
			t.Entries = []p4ir.Entry{}
		}
		if len(t.Keys) == 0 {
			t.Keys = []p4ir.Key{}
		}
	case 28:
		for i := range t.Entries {
			if len(t.Entries[i].Args) == 0 {
				t.Entries[i].Args = []string{}
			}
		}
		for _, a := range t.Actions {
			for i := range a.Primitives {
				if len(a.Primitives[i].Args) == 0 {
					a.Primitives[i].Args = []string{}
				}
			}
		}
	case 29:
		t.Name, t.BaseNext = t.Name+"", t.BaseNext+""
	case 30:
		*t = *t.Clone()
	case 31:
		c.Name += tag
	case 32:
		c.Expr += tag
	case 33:
		c.TrueNext += tag
	case 34:
		c.FalseNext += tag
	case 35:
		switch s.pick(3) {
		case 0:
			c.ReadFields = append(c.ReadFields[:len(c.ReadFields):len(c.ReadFields)], "meta.r"+tag)
		case 1:
			if len(c.ReadFields) == 0 {
				c.ReadFields = []string{}
			}
		case 2:
			if n := len(c.ReadFields); n > 0 {
				c.ReadFields = c.ReadFields[:n-1]
			}
		}
	case 36:
		p.Conds["cnew"+tag] = &p4ir.Conditional{Name: "cnew" + tag, Expr: "x"}
	case 37:
		if keys := sortedKeys(p.Conds); len(keys) > 0 {
			delete(p.Conds, keys[s.pick(len(keys))])
		}
	}
}

// scripted returns the small synthesized program of seed after the edits
// of one script.
func scripted(seed uint64, edits []byte) *p4ir.Program {
	p := synth.Program(synth.ProgramSpec{
		Pipelets: 2 + int(seed%3), AvgLen: 2, Category: synth.Category(seed % 4), Seed: seed, EntriesPerTable: 3,
	})
	for s := (&script{b: edits}); !s.done(); {
		mutate(p, s)
	}
	return p
}

// checkDigestMatchesJSON runs both scripts against one synthesized program
// and checks the equivalence on the pair.
func checkDigestMatchesJSON(t testing.TB, seed uint64, sa, sb []byte) (equal bool) {
	a, b := scripted(seed, sa), scripted(seed, sb)
	sameJSON := bytes.Equal(mustJSON(t, a), mustJSON(t, b))
	sameDigest := a.Digest() == b.Digest()
	if sameJSON != sameDigest {
		t.Fatalf("seed %d scripts %v / %v: JSON equal = %v but digest equal = %v", seed, sa, sb, sameJSON, sameDigest)
	}
	return sameDigest
}

func TestDigestEqualsExactlyWhenJSONEqual(t *testing.T) {
	rng := stats.NewRNG(20260930)
	draw := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return b
	}
	var equal, differ int
	for trial := 0; trial < 3000; trial++ {
		seed := uint64(rng.Intn(64))
		sa := draw(rng.Intn(12))
		sb := sa
		switch rng.Intn(3) {
		case 0: // the same edits on both sides: must agree
		case 1: // one extra edit on one side: usually differs, sometimes a JSON-neutral one
			sb = append(append([]byte(nil), sa...), draw(1+rng.Intn(6))...)
		case 2: // unrelated edits
			sb = draw(rng.Intn(12))
		}
		if checkDigestMatchesJSON(t, seed, sa, sb) {
			equal++
		} else {
			differ++
		}
	}
	// Both directions of the equivalence must have been exercised.
	if equal < 300 || differ < 300 {
		t.Fatalf("lopsided trial mix: %d equal, %d different", equal, differ)
	}
}

// scriptSeeds are the edit-script pairs both fuzz targets start from:
// FuzzDigestMatchesJSON runs them as they are, FuzzDecodeBinary decodes the
// binary form of the programs they produce.
var scriptSeeds = []struct {
	seed   uint64
	sa, sb []byte
}{
	{1, []byte{}, []byte{}},
	{2, []byte{0, 0, 0, 17, 1, 2, 3}, []byte{0, 0, 0, 17, 1, 2, 4}},
	{3, []byte{1, 0, 1, 22, 0, 1, 0, 1, 19, 0, 3}, []byte{1, 0, 1, 22, 0}},
	{5, []byte{2, 1, 0, 26}, []byte{2, 1, 0, 28}},
}

// FuzzDigestMatchesJSON lets the fuzzer search for a pair of edit scripts
// whose programs the digest and the JSON disagree about.
func FuzzDigestMatchesJSON(f *testing.F) {
	for _, s := range scriptSeeds {
		f.Add(s.seed, s.sa, s.sb)
	}
	f.Fuzz(func(t *testing.T, seed uint64, sa, sb []byte) {
		if len(sa) > 64 || len(sb) > 64 {
			t.Skip()
		}
		checkDigestMatchesJSON(t, seed, sa, sb)
	})
}

func TestCloneKeepsDigest(t *testing.T) {
	progs := []*p4ir.Program{fullyPopulated()}
	for seed := uint64(0); seed < 8; seed++ {
		progs = append(progs, synth.Program(synth.ProgramSpec{
			Pipelets: 6, AvgLen: 3, Category: synth.Category(seed % 4), Seed: seed,
		}))
	}
	for _, p := range progs {
		if got, want := p.Clone().Digest(), p.Digest(); got != want {
			t.Errorf("%s: clone digest %s, original %s", p.Name, got, want)
		}
		if p.Digest() != p.Digest() {
			t.Errorf("%s: digest not repeatable", p.Name)
		}
	}
}

// fullyPopulated has every slice and map of the IR non-empty, so the
// reflection walk below reaches every field of every struct.
func fullyPopulated() *p4ir.Program {
	p := p4ir.NewProgram("full")
	p.Root = "c"
	p.Tables["t"] = &p4ir.Table{
		Name:          "t",
		Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}},
		Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.a", "1"))},
		DefaultAction: "set",
		BaseNext:      "u",
		ActionNext:    map[string]string{"set": "u"},
		MaxEntries:    8,
		MinTier:       1,
		Annotations:   map[string]string{"pipeleon.kind": "cache"},
		Entries: []p4ir.Entry{{
			Priority: 3,
			Match:    []p4ir.MatchValue{{Value: 10, PrefixLen: 8, Mask: 0xff}},
			Action:   "set",
			Args:     []string{"7"},
		}},
	}
	p.Tables["u"] = &p4ir.Table{Name: "u", Actions: []*p4ir.Action{p4ir.NoopAction("pass")}, DefaultAction: "pass"}
	p.Conds["c"] = &p4ir.Conditional{Name: "c", Expr: "meta.a == 1", TrueNext: "t", FalseNext: "u", ReadFields: []string{"meta.a"}}
	return p
}

// TestDigestCoversEveryField perturbs every leaf value reachable from a
// Program by reflection, one at a time, and requires the digest (and the
// JSON, whose coverage the digest mirrors) to move and the decoder to read
// the perturbed value back: every perturbation leaves a non-zero value, so
// a field the decoder skips re-encodes differently. A field added to any IR
// struct without a line in binary.go's walk and decoder fails here by name.
func TestDigestCoversEveryField(t *testing.T) {
	p := fullyPopulated()
	cleanDigest, cleanJSON := p.Digest(), mustJSON(t, p)
	leaves := 0
	check := func(path string) {
		t.Helper()
		leaves++
		if p.Digest() == cleanDigest {
			t.Errorf("%s: changed, digest did not", path)
		}
		if bytes.Equal(mustJSON(t, p), cleanJSON) {
			t.Errorf("%s: changed, JSON did not — cover the field in MarshalJSON and in the binary walk", path)
		}
		// Without Validate: a perturbed reference dangles.
		enc := p.AppendBinary(nil)
		if q, err := p4ir.DecodeBinaryUnchecked(enc); err != nil {
			t.Errorf("%s: changed, encoding no longer decodes: %v", path, err)
		} else if !bytes.Equal(q.AppendBinary(nil), enc) {
			t.Errorf("%s: changed, DecodeBinary did not read it back", path)
		}
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Ptr:
			walk(path, v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Map:
			for _, k := range v.MapKeys() {
				elem := v.MapIndex(k)
				kp := fmt.Sprintf("%s[%q]", path, k.String())
				if elem.Kind() == reflect.Ptr {
					walk(kp, elem)
					continue
				}
				// map[string]string: the value and the key are both leaves.
				v.SetMapIndex(k, reflect.ValueOf(elem.String()+"~"))
				check(kp)
				v.SetMapIndex(k, reflect.Value{})
				v.SetMapIndex(reflect.ValueOf(k.String()+"~"), elem)
				check(kp + " (key)")
				v.SetMapIndex(reflect.ValueOf(k.String()+"~"), reflect.Value{})
				v.SetMapIndex(k, elem)
			}
		case reflect.String:
			old := v.String()
			v.SetString(old + "~")
			check(path)
			v.SetString(old)
		case reflect.Int:
			old := v.Int()
			v.SetInt(old + 1)
			check(path)
			v.SetInt(old)
		case reflect.Uint64:
			old := v.Uint()
			v.SetUint(old ^ 1<<40)
			check(path)
			v.SetUint(old)
		case reflect.Bool:
			old := v.Bool()
			v.SetBool(!old)
			check(path)
			v.SetBool(old)
		default:
			t.Fatalf("%s: IR field of kind %s — teach this walk and Digest about it", path, v.Kind())
		}
	}
	walk("Program", reflect.ValueOf(p))
	if p.Digest() != cleanDigest {
		t.Fatal("walk did not restore the program")
	}
	// Program 2 + tables (14+Key 3+Action 1+Primitive 2+Entry 3+MatchValue 3,
	// two map values, two map keys) + the bare table + Conditional 5: a
	// floor that catches a walk that silently stopped descending.
	if leaves < 40 {
		t.Fatalf("walk visited only %d leaves", leaves)
	}
}

var digestSink p4ir.Digest

// synth110 is the 110-table program of the synth-shift workload.
func synth110() *p4ir.Program {
	return synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
}

// BenchmarkDigest and BenchmarkMarshalJSON price the two ways of asking
// "is this the same program"; BenchmarkAppendBinary and BenchmarkDecodeBinary
// against BenchmarkMarshalJSON and BenchmarkUnmarshalJSON price the two ways
// of moving one between processes.
func BenchmarkDigest(b *testing.B) {
	p := synth110()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = p.Digest()
	}
}

var jsonSink []byte

func BenchmarkMarshalJSON(b *testing.B) {
	p := synth110()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jsonSink, _ = p.MarshalJSON()
	}
}

var programSink *p4ir.Program

func BenchmarkUnmarshalJSON(b *testing.B) {
	js := mustJSON(b, synth110())
	b.SetBytes(int64(len(js)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &p4ir.Program{}
		if err := p.UnmarshalJSON(js); err != nil {
			b.Fatal(err)
		}
		programSink = p
	}
}

func BenchmarkAppendBinary(b *testing.B) {
	p := synth110()
	buf := p.AppendBinary(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendBinary(buf[:0])
	}
	jsonSink = buf
}

func BenchmarkDecodeBinary(b *testing.B) {
	enc := synth110().AppendBinary(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := p4ir.DecodeBinary(enc)
		if err != nil {
			b.Fatal(err)
		}
		programSink = p
	}
}
