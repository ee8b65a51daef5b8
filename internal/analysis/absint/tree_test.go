package absint

import (
	"fmt"
	"testing"

	"pipeleon/internal/p4ir"
)

// treeProgram chains n diamonds. Conditional c<i> branches on ipv4.ttl;
// one arm runs table a<i> and then conditional d<i>, nested, which only
// the classes taking that arm reach; the other runs b<i>, which drops on
// one entry. The arms swap from one diamond to the next, so whichever arm
// the topological order puts first, some b<i> has reached the join c<i+1>
// before d<i> forks, and the arms of that fork join into a row the fork
// must restore. Every arm rejoins at c<i+1>, so the program has 2n
// conditionals, and a class tree over them meets forced conditionals it
// does not reach.
func treeProgram(n int) *p4ir.Program {
	b := p4ir.NewBuilder("tree")
	for i := range n {
		next := fmt.Sprintf("c%d", i+1)
		if i == n-1 {
			next = ""
		}
		set := func(name, field, v string) *p4ir.Action {
			return p4ir.NewAction(name, p4ir.Prim("modify_field", field, v))
		}
		arms := [2]string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)}
		if i%2 == 1 {
			arms[0], arms[1] = arms[1], arms[0]
		}
		b.Cond(fmt.Sprintf("c%d", i), fmt.Sprintf("ipv4.ttl > %d", 20*i+5), arms[0], arms[1], "ipv4.ttl").
			Table(p4ir.TableSpec{
				Name:    fmt.Sprintf("a%d", i),
				Keys:    []p4ir.Key{exactKey("tcp.dport", 16)},
				Actions: []*p4ir.Action{set("hit", fmt.Sprintf("meta.m%d", i), "$0"), p4ir.NoopAction("miss")},
				Entries: []p4ir.Entry{
					{Match: []p4ir.MatchValue{{Value: 80}}, Action: "hit", Args: []string{fmt.Sprint(i + 1)}},
					{Match: []p4ir.MatchValue{{Value: 443}}, Action: "hit", Args: []string{fmt.Sprint(i + 100)}},
				},
				DefaultAction: "miss",
				Next:          fmt.Sprintf("d%d", i),
			}).
			Cond(fmt.Sprintf("d%d", i), fmt.Sprintf("meta.m%d == %d", i, i+1), fmt.Sprintf("e%d", i), next, fmt.Sprintf("meta.m%d", i)).
			Table(p4ir.TableSpec{
				Name:    fmt.Sprintf("e%d", i),
				Actions: []*p4ir.Action{set("mark", fmt.Sprintf("meta.x%d", i), fmt.Sprint(1000+i))},
				Next:    next,
			}).
			Table(p4ir.TableSpec{
				Name:          fmt.Sprintf("b%d", i),
				Keys:          []p4ir.Key{exactKey("ipv4.ttl", 8)},
				Actions:       []*p4ir.Action{p4ir.NewAction("deny", p4ir.Prim("drop")), p4ir.NoopAction("pass")},
				Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: uint64(i)}}, Action: "deny"}},
				DefaultAction: "pass",
				Next:          next,
			})
	}
	return b.Root("c0").MustBuild()
}

// The class tree against the reference interpreter's run of each class,
// on a program with more conditionals than the semantic checker forces
// (14 > semMaxConds) and forced conditionals that many classes never
// reach. Classes on either side of an unreached forced conditional share
// the outcome of one leaf; the test checks that the tree took that path.
func TestClassTreeMatchesReference(t *testing.T) {
	prog := treeProgram(7)
	conds := CondNames(prog)
	if len(conds) != 14 {
		t.Fatalf("%d conditionals, want 14", len(conds))
	}
	if d := diffAgainstReference(prog, len(conds)); d != "" {
		t.Fatal(d)
	}
	// Forking on the nested conditionals only, both arms of every c<i>
	// run: the one the topological order puts first reaches c<i+1> before
	// d<i> forks, and the arms of d<i> each join into that row.
	var nested []string
	for _, c := range conds {
		if c[0] == 'd' {
			nested = append(nested, c)
		}
	}
	if d := diffClasses(NewAnalyzer(prog), newRefAnalyzer(prog), nested); d != "" {
		t.Fatalf("classes over %v: %s", nested, d)
	}
	out, err := NewAnalyzer(prog).ExecClasses(conds)
	if err != nil {
		t.Fatal(err)
	}
	// c0 false (bit 0 clear): d0, on c0's true arm, is never reached, so
	// flipping its bit lands on the same leaf.
	d0 := 0
	for i, c := range conds {
		if c == "d0" {
			d0 = i
		}
	}
	shared := 0
	for bits := range out {
		if bits&1 == 0 && bits&(1<<d0) == 0 && out[bits].Egress != nil && out[bits].Egress == out[bits|1<<d0].Egress {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no class past an unreached forced conditional shares its leaf")
	}
}

// Conditionals the program does not hold split no class: both sides equal
// the class without them.
func TestClassTreeIgnoresAbsentConditionals(t *testing.T) {
	prog := treeProgram(2)
	an := NewAnalyzer(prog)
	conds := CondNames(prog)
	want, err := an.ExecClasses(conds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := an.ExecClasses(append(conds, "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	ghost := len(conds)
	for bits := range want {
		for _, b := range []int{bits, bits | 1<<ghost} {
			if !sameOutcome(out[b], want[bits]) {
				t.Fatalf("class %b: %+v, without the ghost %+v", b, out[b], want[bits])
			}
		}
	}
}

func sameOutcome(a, b ClassOutcome) bool {
	if a.Feasible != b.Feasible || a.MayDrop != b.MayDrop || a.MustDrop != b.MustDrop || (a.Egress == nil) != (b.Egress == nil) {
		return false
	}
	if a.Egress == nil {
		return true
	}
	for _, f := range b.Egress.Fields() {
		if !a.Egress.Get(f).Eq(b.Egress.Get(f)) {
			return false
		}
	}
	return true
}
