package p4ir

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The JSON schema mirrors the structure of a BMv2 compiler .json file at
// the granularity Pipeleon cares about: a pipeline of tables and
// conditionals with next-node references, action primitive lists, and
// installed entries. The paper's prototype "takes the intermediate file
// generated by the P4 compiler as input ... converts it to a graph-based
// IR, transforms the graph ... and finally converts the optimized graph
// back to the intermediate file"; MarshalJSON/UnmarshalJSON are those two
// conversions.

type jsonProgram struct {
	Name   string      `json:"name"`
	Root   string      `json:"init_table"`
	Tables []jsonTable `json:"tables"`
	Conds  []jsonCond  `json:"conditionals"`
}

type jsonTable struct {
	Name          string            `json:"name"`
	Keys          []jsonKey         `json:"key"`
	Actions       []jsonAction      `json:"actions"`
	DefaultAction string            `json:"default_action,omitempty"`
	BaseNext      string            `json:"base_next,omitempty"`
	ActionNext    map[string]string `json:"next_tables,omitempty"`
	MaxEntries    int               `json:"max_size,omitempty"`
	Unsupported   bool              `json:"unsupported,omitempty"`
	MinTier       int               `json:"min_tier,omitempty"`
	Sticky        bool              `json:"sticky,omitempty"`
	Annotations   map[string]string `json:"annotations,omitempty"`
	Entries       []jsonEntry       `json:"entries,omitempty"`
}

type jsonKey struct {
	Field string `json:"target"`
	Kind  string `json:"match_type"`
	Width int    `json:"width,omitempty"`
}

type jsonAction struct {
	Name       string          `json:"name"`
	Primitives []jsonPrimitive `json:"primitives"`
}

type jsonPrimitive struct {
	Op   string   `json:"op"`
	Args []string `json:"parameters,omitempty"`
}

type jsonEntry struct {
	Priority int         `json:"priority,omitempty"`
	Match    []jsonMatch `json:"match_key"`
	Action   string      `json:"action_name"`
	Args     []string    `json:"action_data,omitempty"`
}

type jsonMatch struct {
	Value     uint64 `json:"value"`
	PrefixLen int    `json:"prefix_length,omitempty"`
	Mask      uint64 `json:"mask,omitempty"`
}

// MarshalJSON implements json.Marshaler with deterministic node ordering.
func (p *Program) MarshalJSON() ([]byte, error) {
	jp := jsonProgram{Name: p.Name, Root: p.Root}
	tnames := make([]string, 0, len(p.Tables))
	for n := range p.Tables {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	for _, n := range tnames {
		t := p.Tables[n]
		jt := jsonTable{
			Name:          t.Name,
			DefaultAction: t.DefaultAction,
			BaseNext:      t.BaseNext,
			ActionNext:    t.ActionNext,
			MaxEntries:    t.MaxEntries,
			Unsupported:   t.Unsupported,
			MinTier:       t.MinTier,
			Sticky:        t.Sticky,
			Annotations:   t.Annotations,
		}
		for _, k := range t.Keys {
			jt.Keys = append(jt.Keys, jsonKey{Field: k.Field, Kind: k.Kind.String(), Width: k.Width})
		}
		for _, a := range t.Actions {
			ja := jsonAction{Name: a.Name}
			for _, prim := range a.Primitives {
				ja.Primitives = append(ja.Primitives, jsonPrimitive{Op: prim.Op, Args: prim.Args})
			}
			jt.Actions = append(jt.Actions, ja)
		}
		for _, e := range t.Entries {
			je := jsonEntry{Priority: e.Priority, Action: e.Action, Args: e.Args}
			for _, m := range e.Match {
				je.Match = append(je.Match, jsonMatch{Value: m.Value, PrefixLen: m.PrefixLen, Mask: m.Mask})
			}
			jt.Entries = append(jt.Entries, je)
		}
		jp.Tables = append(jp.Tables, jt)
	}
	cnames := make([]string, 0, len(p.Conds))
	for n := range p.Conds {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		c := p.Conds[n]
		jp.Conds = append(jp.Conds, jsonCond{
			Name: c.Name, Expr: c.Expr,
			TrueNext: c.TrueNext, FalseNext: c.FalseNext,
			ReadFields: c.ReadFields,
		})
	}
	return json.MarshalIndent(jp, "", "  ")
}

type jsonCond struct {
	Name       string   `json:"name"`
	Expr       string   `json:"expression"`
	TrueNext   string   `json:"true_next,omitempty"`
	FalseNext  string   `json:"false_next,omitempty"`
	ReadFields []string `json:"read_fields,omitempty"`
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Program) UnmarshalJSON(data []byte) error {
	var jp jsonProgram
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	*p = *NewProgram(jp.Name)
	p.Root = jp.Root
	for _, jt := range jp.Tables {
		t := &Table{
			Name:          jt.Name,
			DefaultAction: jt.DefaultAction,
			BaseNext:      jt.BaseNext,
			ActionNext:    jt.ActionNext,
			MaxEntries:    jt.MaxEntries,
			Unsupported:   jt.Unsupported,
			MinTier:       jt.MinTier,
			Sticky:        jt.Sticky,
			Annotations:   jt.Annotations,
		}
		for _, jk := range jt.Keys {
			kind, err := ParseMatchKind(jk.Kind)
			if err != nil {
				return fmt.Errorf("table %q: %w", jt.Name, err)
			}
			t.Keys = append(t.Keys, Key{Field: jk.Field, Kind: kind, Width: jk.Width})
		}
		for _, ja := range jt.Actions {
			a := &Action{Name: ja.Name}
			for _, jprim := range ja.Primitives {
				a.Primitives = append(a.Primitives, Primitive{Op: jprim.Op, Args: jprim.Args})
			}
			t.Actions = append(t.Actions, a)
		}
		for _, je := range jt.Entries {
			e := Entry{Priority: je.Priority, Action: je.Action, Args: je.Args}
			for _, jm := range je.Match {
				e.Match = append(e.Match, MatchValue{Value: jm.Value, PrefixLen: jm.PrefixLen, Mask: jm.Mask})
			}
			t.Entries = append(t.Entries, e)
		}
		p.Tables[t.Name] = t
	}
	for _, jc := range jp.Conds {
		p.Conds[jc.Name] = &Conditional{
			Name: jc.Name, Expr: jc.Expr,
			TrueNext: jc.TrueNext, FalseNext: jc.FalseNext,
			ReadFields: jc.ReadFields,
		}
	}
	return p.Validate()
}

// LoadFile reads a program from a JSON file.
func LoadFile(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Load reads a program from r.
func Load(r io.Reader) (*Program, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &Program{}
	if err := p.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return p, nil
}
