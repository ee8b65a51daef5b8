// Package diag defines the multi-diagnostic vocabulary shared by the
// p4ir structural checks and the internal/analysis semantic rules: stable
// rule codes, warn/error severities, node/field positions, and collect-all
// lists instead of fail-fast single errors. It sits below p4ir in the
// dependency order (standard library only) so the IR itself can emit
// diagnostics without importing the analyzer.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// Severity classifies a diagnostic. Errors block deployment; warnings are
// surfaced but do not gate; infos report how a check was made.
type Severity int

const (
	// Warn flags suspicious-but-deployable constructs.
	Warn Severity = iota
	// Error flags programs that must not be deployed.
	Error
	// Info states a fact about the check itself, such as its strength.
	Info
)

// String returns "warn", "error" or "info".
func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Info:
		return "info"
	}
	return "warn"
}

// MarshalText encodes the severity as "warn"/"error"/"info" for JSON
// transport (the control plane ships diagnostics to remote clients).
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes "warn"/"error"/"info".
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "warn":
		*s = Warn
	case "error":
		*s = Error
	case "info":
		*s = Info
	default:
		return fmt.Errorf("diag: unknown severity %q", b)
	}
	return nil
}

// Diagnostic is one finding: a stable rule code, a severity, the node (and
// optionally the field) it anchors to, and a human-readable message.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Node     string   `json:"node,omitempty"`
	Field    string   `json:"field,omitempty"`
	Message  string   `json:"message"`
}

// String renders "CODE severity node(field): message".
func (d Diagnostic) String() string {
	var b strings.Builder
	b.WriteString(d.Code)
	b.WriteByte(' ')
	b.WriteString(d.Severity.String())
	if d.Node != "" {
		b.WriteByte(' ')
		b.WriteString(d.Node)
		if d.Field != "" {
			b.WriteByte('(')
			b.WriteString(d.Field)
			b.WriteByte(')')
		}
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	return b.String()
}

// List is an ordered collection of diagnostics.
type List []Diagnostic

// Add appends a diagnostic built from a format string.
func (l *List) Add(code string, sev Severity, node, field, format string, args ...interface{}) {
	*l = append(*l, Diagnostic{
		Code:     code,
		Severity: sev,
		Node:     node,
		Field:    field,
		Message:  fmt.Sprintf(format, args...),
	})
}

// HasErrors reports whether any diagnostic has Error severity.
func (l List) HasErrors() bool {
	for _, d := range l {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the Error-severity diagnostics.
func (l List) Errors() List {
	var out List
	for _, d := range l {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Strings renders every diagnostic (for reports and CLI output).
func (l List) Strings() []string {
	out := make([]string, len(l))
	for i, d := range l {
		out[i] = d.String()
	}
	return out
}

// Sort orders the list by (code, node, field, message) for deterministic
// output regardless of map-iteration order in the producers.
func (l List) Sort() {
	sort.Slice(l, func(i, j int) bool {
		a, b := l[i], l[j]
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Message < b.Message
	})
}
