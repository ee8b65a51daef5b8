package analysis

import "fmt"

// EdgeLines lists the checker's classified dependency edges in its order,
// one "u -> v kind field" line each.
func (rc *RewriteChecker) EdgeLines() []string {
	out := make([]string, 0, len(rc.edges))
	for _, e := range rc.edges {
		out = append(out, fmt.Sprintf("%s -> %s %s %s", e.u, e.v, e.kind, e.field))
	}
	return out
}
