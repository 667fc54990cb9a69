package core

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the explain golden files")

// TestExplainSpecializationGolden pins Explain's rendering of goal
// specialization: a bound goal, recursive (reach) or not (costar),
// prints the rewritten rules under "specialized from …"; a goal whose
// recursion does not carry its constants (right-linear rr bound on its
// source) prints the reason it kept the unspecialized program.
// Regenerate with -update.
func TestExplainSpecializationGolden(t *testing.T) {
	db := New()
	defer db.Close()
	if _, err := db.LoadScript(`
appears_with(o1, o2, s1).
costar(X, Y, S) :- appears_with(X, Y, S).
costar(X, Y, S) :- appears_with(Y, X, S).
reach(X, Y) :- costar(X, Y, S).
reach(X, Z) :- reach(X, Y), costar(Y, Z, S).
rr(X, Y) :- costar(X, Y, S).
rr(X, Z) :- costar(X, Y, S), rr(Y, Z).
`); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ file, query string }{
		{"explain_costar.golden", "?- costar(o1, Y, S)."},
		{"explain_reach.golden", "?- reach(o1, X)."},
		{"explain_rr.golden", "?- rr(o1, X)."},
	} {
		got, err := db.Explain(c.query)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", c.query, got, want)
		}
	}
}
