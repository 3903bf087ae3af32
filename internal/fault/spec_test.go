package fault

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The keys the grammar dropped — the slow-node mode, the recovery knobs,
// now constants, and crashminepoch, which no run needed — are refused, not
// silently ignored.
func TestRemovedKeysRefused(t *testing.T) {
	for _, spec := range []string{
		"slownode=1", "slowfactor=2", "timeout=20us", "retries=3", "backoff=1us", "backoffcap=64us", "crashminepoch=1",
	} {
		if p, err := ParsePlan(spec); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("ParsePlan(%q) = %+v, %v; want an unknown-key error", spec, p, err)
		}
	}
}

// ParsePlan's doc comment and its unknown-key error list exactly the keys of
// specKeys, in its order.
func TestSpecKeysDocumented(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fault.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "ParsePlan" {
			doc = fn.Doc.Text()
		}
	}
	m := regexp.MustCompile(`Keys: ([^.]*)\.`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatalf("ParsePlan's doc comment has no \"Keys: ...\" sentence:\n%s", doc)
	}
	documented := strings.Join(strings.Fields(m[1]), " ")
	want := specKeyList()
	if documented != want {
		t.Errorf("ParsePlan's doc comment lists\n  %s\nthe grammar is\n  %s", documented, want)
	}
	_, err = ParsePlan("bogus=1")
	if err == nil || !strings.Contains(err.Error(), "(want "+want+")") {
		t.Errorf("unknown-key error %v does not list the grammar %s", err, want)
	}
}

// repoSpecs collects the chaos specs the repository runs or shows: the CI
// jobs' -chaos arguments, the ledger's chaos workload spec and the README's
// commands and API examples. Each source must yield at least min specs, so a
// moved file or a changed spelling fails here instead of testing nothing.
func repoSpecs(t *testing.T) []string {
	t.Helper()
	chaosArg := regexp.MustCompile(`-chaos\s+(?:'([^']*)'|"([^"$]*)"|([^\s'"$\\]+))`)
	sources := []struct {
		path string
		res  []*regexp.Regexp
		min  int
	}{
		{"../../.github/workflows/ci.yml", []*regexp.Regexp{chaosArg, regexp.MustCompile(`spec='([^']*)'`)}, 7},
		{"../../README.md", []*regexp.Regexp{chaosArg, regexp.MustCompile(`(?:WithChaos|ParseFaultPlan)\("([^"]*)"\)`)}, 6},
		{"../../benchmark/workloads.go", []*regexp.Regexp{regexp.MustCompile(`func chaosSpec[^{]*\{\s*return fmt\.Sprintf\("([^"]*)"`)}, 1},
	}
	var specs []string
	for _, src := range sources {
		b, err := os.ReadFile(src.path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, re := range src.res {
			for _, m := range re.FindAllStringSubmatch(string(b), -1) {
				for _, g := range m[1:] {
					if g != "" {
						specs = append(specs, strings.ReplaceAll(g, "%d", "42"))
						n++
					}
				}
			}
		}
		if n < src.min {
			t.Fatalf("%s: found %d chaos specs, want at least %d", src.path, n, src.min)
		}
	}
	return specs
}

// Every chaos spec the repository runs or shows replays from its rendering:
// the plan a run prints (String) parses back to the plan that ran.
func TestRepoSpecsRoundTrip(t *testing.T) {
	for _, spec := range repoSpecs(t) {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", spec, err)
			continue
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Errorf("%q renders as %q, which does not parse: %v", spec, p.String(), err)
			continue
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("%q renders as %q, which parses to another plan:\n  ran     %+v\n  printed %+v", spec, p.String(), p, q)
		}
	}
}
