package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Golden-package harness, analysistest style: each directory under
// testdata/src is one package; a comment `// want "regexp"` on a line
// asserts an unsuppressed diagnostic whose message matches lands on
// that line, and every unsuppressed diagnostic must be wanted. Files
// exercising the suppression facility carry //videolint:ignore
// directives and no wants: they pass only if suppression works.

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

// stdExports builds an import-path → export-data map for the standard
// library packages the golden packages use (plus transitive deps),
// through the go build cache — no network, roughly one `go build` warm.
func stdExports(t *testing.T) func(string) string {
	t.Helper()
	exportsOnce.Do(func() {
		pkgs, err := goList(".", "list", "-export", "-deps",
			"-json=ImportPath,Export,Standard",
			"context", "sync", "sync/atomic", "os", "time", "fmt", "io")
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = make(map[string]string, len(pkgs))
		for _, p := range pkgs {
			if p.Export != "" {
				exportsMap[p.ImportPath] = p.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("listing std export data: %v", exportsErr)
	}
	return func(path string) string { return exportsMap[path] }
}

var wantRE = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// goldenWant is one expectation parsed from a `// want` comment.
type goldenWant struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func runGolden(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkgDir := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	var wants []*goldenWant
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(pkgDir, e.Name())
		files = append(files, name)
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, m[1], err)
				}
				wants = append(wants, &goldenWant{file: name, line: i + 1, pattern: re})
			}
		}
	}

	// Give the golden package an import path inside the analyzer's
	// scope, so Run applies it exactly as it would on the real tree.
	ipath := "lint_testdata/" + dir
	if len(a.Scope) > 0 {
		ipath += "/" + a.Scope[0]
	}
	fset := token.NewFileSet()
	pkg, err := CheckFiles(fset, ipath, files, stdExports(t))
	if err != nil {
		t.Fatalf("type-checking golden package %s: %v", dir, err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	var unexpected []string
	for _, d := range Unsuppressed(diags) {
		found := false
		for _, w := range wants {
			if d.Pos.Filename == w.file && d.Pos.Line == w.line && w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			unexpected = append(unexpected, d.String())
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected diagnostic: %s", u)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: wanted diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestLockCheckGolden(t *testing.T)   { runGolden(t, LockCheck, "lockcheck_a") }
func TestLockRankGolden(t *testing.T)    { runGolden(t, LockCheck, "core") }
func TestLockIgnoreGolden(t *testing.T)  { runGolden(t, LockCheck, "lockcheck_ok") }
func TestCtxCheckGolden(t *testing.T)    { runGolden(t, CtxCheck, "ctxcheck_a") }
func TestErrLatchGolden(t *testing.T)    { runGolden(t, ErrLatch, "errlatch_a") }
func TestMetricCheckGolden(t *testing.T) { runGolden(t, MetricCheck, "metriccheck_a") }

// TestIgnoreDirectiveValidation asserts malformed suppressions are
// themselves diagnostics: ignores silencing nothing for free.
func TestIgnoreDirectiveValidation(t *testing.T) {
	runGolden(t, LockCheck, "ignore_bad")
}

// TestAnalyzersScoped asserts the scope tables cover the packages the
// issue names.
func TestAnalyzersScoped(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{LockCheck, "videodb/internal/store", true},
		{LockCheck, "videodb/internal/store/segment", true},
		{LockCheck, "videodb/internal/core", true},
		{LockCheck, "videodb/internal/datalog", true},
		{LockCheck, "videodb/internal/server", false},
		{CtxCheck, "videodb/internal/server", true},
		{ErrLatch, "videodb/internal/store", true},
		{ErrLatch, "videodb/internal/core", false},
		{MetricCheck, "videodb/internal/server", true},
		{MetricCheck, "videodb/internal/store", false},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}

// TestSuiteCleanOnRepo runs the full suite over the real engine
// packages and requires zero unsuppressed diagnostics — the bring-up
// contract, enforced forever.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := Run(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unsuppressed: %s", d)
	}
	// Every suppression must carry a reason (the directive parser
	// enforces it; this guards the invariant end to end).
	for _, d := range diags {
		if d.Suppressed && strings.TrimSpace(d.Reason) == "" {
			t.Errorf("suppressed without reason: %s", d)
		}
	}
}
