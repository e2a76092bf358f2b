package analysis

// A golden-test runner in the style of x/tools' analysistest: fixture
// packages under testdata/ carry `// want "regexp"` comments on the
// lines where diagnostics are expected, and the suite fails on any
// missing or unexpected diagnostic. Fixtures live under testdata so
// `./...` wildcards (build, test, vet) never see their deliberately
// broken code, but they are real packages of this module and may
// import the real internal/storage.

import (
	"fmt"
	"regexp"
	"strings"
)

// TB is the subset of *testing.T the runner needs; keeping it local
// means non-test code never imports the testing package.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

var wantRe = regexp.MustCompile(`// want (.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// RunGolden analyzes the package in dir (a path relative to the
// caller, e.g. "testdata/atomicguard") and matches diagnostics against
// the fixture's want comments.
func RunGolden(t TB, a *Analyzer, dir string) {
	t.Helper()
	pkgs, err := LoadPackages("", "./"+dir)
	if err != nil {
		t.Errorf("loading %s: %v", dir, err)
		return
	}
	for _, lp := range pkgs {
		diags, err := runPackage(lp.NewPass(), []*Analyzer{a})
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, dir, err)
			return
		}
		// Collect wants: file:line → list of regexps.
		type want struct {
			re      *regexp.Regexp
			matched bool
			line    int
			file    string
		}
		wants := map[string][]*want{}
		for _, f := range lp.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := lp.Fset.Position(c.Pos())
					for _, qm := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
						pat, err := regexp.Compile(unescapeWant(qm[1]))
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, qm[1], err)
							continue
						}
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], &want{re: pat, line: pos.Line, file: pos.Filename})
					}
				}
			}
		}
		for _, d := range diags {
			pos := lp.Fset.Position(d.Pos)
			key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
			found := false
			for _, wt := range wants[key] {
				if !wt.matched && wt.re.MatchString(d.Message) {
					wt.matched = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			}
		}
		for _, ws := range wants {
			for _, wt := range ws {
				if !wt.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none",
						wt.file, wt.line, wt.re)
				}
			}
		}
	}
}

func unescapeWant(s string) string {
	s = strings.ReplaceAll(s, `\"`, `"`)
	return s
}
