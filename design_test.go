package pipeleon

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designMaxLines bounds DESIGN.md: a description of the code as it stands,
// not a log of how it came to be (CHANGES.md is that).
const designMaxLines = 2500

type designSection struct {
	title string
	lines []string
}

// readDesign reads DESIGN.md as its lines and its `## ` sections, and
// returns the titles a reference may name: the sections' and every
// `**X.**` bold lead's.
func readDesign(t *testing.T) (lines []string, sections []designSection, titles map[string]bool) {
	t.Helper()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines, titles = strings.Split(string(data), "\n"), map[string]bool{}
	lead := regexp.MustCompile(`\*\*([^*]+?)\.\*\*`)
	for _, line := range lines {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			sections = append(sections, designSection{title: title})
			titles[title] = true
			continue
		}
		if len(sections) > 0 {
			s := &sections[len(sections)-1]
			s.lines = append(s.lines, line)
		}
		for _, m := range lead.FindAllStringSubmatch(line, -1) {
			titles[m[1]] = true
		}
	}
	return lines, sections, titles
}

// A quoted DESIGN.md section — `DESIGN.md, "X"`, `DESIGN.md "X"`, or
// `"X" in DESIGN.md`, wrapped across lines or not, "A → B" naming a part of
// a part — names a `##` heading or a `**X.**` bold lead DESIGN.md still has.
// The files that cite it: every non-test Go file of the module, README.md,
// EXPERIMENTS.md, ROADMAP.md and the verify skill. CHANGES.md is history and
// may cite sections that have since gone.
func TestDesignReferencesResolve(t *testing.T) {
	_, _, titles := readDesign(t)
	texts := map[string]string{}
	walkModule(t, func(path string, src []byte, _ *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			texts[path] = string(src)
		}
	})
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(data)
	}
	wrap := regexp.MustCompile(`\s*\n\s*(?://+\s*)?`)
	quoted := regexp.MustCompile(`"([^"]+)"`)
	after := regexp.MustCompile("DESIGN\\.md`?,?\\s+\\(?(\"[^\"]+\")")
	before := regexp.MustCompile("((?:\"[^\"]+\"(?:,\\s*|,?\\s+and\\s+))*\"[^\"]+\")\\s+in\\s+`?DESIGN\\.md")
	found := 0
	for path, text := range texts {
		text = wrap.ReplaceAllString(text, " ")
		for _, re := range []*regexp.Regexp{after, before} {
			for _, m := range re.FindAllStringSubmatch(text, -1) {
				for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
					found++
					for _, part := range strings.Split(q[1], " → ") {
						if !titles[part] {
							t.Errorf("%s cites DESIGN.md %q, which has no heading or bold lead %q", path, q[1], part)
						}
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("found no DESIGN.md reference at all: the patterns no longer match how the files cite it")
	}
}

// DESIGN.md says what the code is. It stays within designMaxLines; a PR
// number appears only on a section's one `History:` line, which points to
// CHANGES.md; and every `##` section names the package that owns it on an
// `Owner:` line (a path that exists) and the tests that hold its claims on
// a `Held by:` line (which TestDocsNameOnlyWhatExists resolves).
func TestDesignIsCurrentState(t *testing.T) {
	lines, sections, _ := readDesign(t)
	if n := len(lines) - 1; n > designMaxLines {
		t.Errorf("DESIGN.md has %d lines, over %d: describe the code, and leave its history to CHANGES.md", n, designMaxLines)
	}
	prNumber := regexp.MustCompile(`PR [0-9]`)
	for i, line := range lines {
		if prNumber.MatchString(line) && !strings.HasPrefix(line, "History:") {
			t.Errorf("DESIGN.md:%d cites a PR outside a History: line: %s", i+1, line)
		}
	}
	span := regexp.MustCompile("`([^`]+)`")
	testName := regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_]`)
	for _, s := range sections {
		history, owned, held := 0, false, false
		for _, line := range s.lines {
			switch {
			case strings.HasPrefix(line, "History:"):
				history++
			case strings.HasPrefix(line, "Owner:"):
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					if _, err := os.Stat(m[1]); err == nil {
						owned = true
					}
				}
			case strings.HasPrefix(line, "Held by:"):
				for _, m := range span.FindAllStringSubmatch(line, -1) {
					held = held || testName.MatchString(m[1])
				}
			}
		}
		if history > 1 {
			t.Errorf("DESIGN.md %q has %d History: lines, want at most one", s.title, history)
		}
		if !owned {
			t.Errorf("DESIGN.md %q has no Owner: line naming a package path that exists", s.title)
		}
		if !held {
			t.Errorf("DESIGN.md %q has no Held by: line naming a test", s.title)
		}
	}
}
