package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videodb/internal/object"
)

// BenchmarkViewMaintenance is the per-mutation cost of keeping a
// transitive closure over a 200-node chain current: one side edge near
// the tail is toggled, then the closure is read. The view applies the
// one-fact delta (semi-naive insertion or DRed deletion, ~20 tuples);
// recompute re-evaluates the goal, which is what every read paid before
// materialized views.
func BenchmarkViewMaintenance(b *testing.B) {
	const chain = 200
	build := func(b *testing.B) (*DB, func()) {
		db := New()
		for _, rule := range []string{
			"reach(X, Y) :- edge(X, Y)",
			"reach(X, Z) :- reach(X, Y), edge(Y, Z)",
		} {
			if err := db.DefineRule(rule); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < chain-1; i++ {
			if err := db.Relate("edge",
				object.OID(fmt.Sprintf("n%03d", i)), object.OID(fmt.Sprintf("n%03d", i+1))); err != nil {
				b.Fatal(err)
			}
		}
		mid := object.OID(fmt.Sprintf("n%03d", chain-20))
		on := false
		flip := func() {
			var err error
			if on {
				_, err = db.Unrelate("edge", "side", mid)
			} else {
				err = db.Relate("edge", "side", mid)
			}
			if err != nil {
				b.Fatal(err)
			}
			on = !on
		}
		return db, flip
	}
	b.Run(fmt.Sprintf("closure/chain=%d/incremental", chain), func(b *testing.B) {
		db, flip := build(b)
		defer db.Close()
		if _, err := db.Materialize("closure", "?- reach(X, Y)"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flip()
			v, err := db.View("closure")
			if err != nil {
				b.Fatal(err)
			}
			if v.Mode != ViewIncremental {
				b.Fatalf("view served %q after a fact delta, want %q", v.Mode, ViewIncremental)
			}
		}
	})
	b.Run(fmt.Sprintf("closure/chain=%d/recompute", chain), func(b *testing.B) {
		db, flip := build(b)
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flip()
			if _, err := db.Query("?- reach(X, Y)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVet is one full static-analysis pass (parse plus every
// analyzer pass, solver-backed dead-rule detection included) over each
// shipped example script and over a 200-rule chain with one dense-order
// guard per rule, where every rule body reaches the solver.
func BenchmarkVet(b *testing.B) {
	var chain strings.Builder
	chain.WriteString("p0(r1).\n")
	for i := 1; i <= 200; i++ {
		fmt.Fprintf(&chain, "p%d(X) :- p%d(X), X.w > %d.\n", i, i-1, i)
	}
	chain.WriteString("?- p200(X).\n")
	type script struct{ name, src string }
	scripts := []script{{"synthetic_chain_200", chain.String()}}
	paths, err := filepath.Glob(filepath.FromSlash("../../examples/scripts/*.vql"))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		scripts = append(scripts, script{strings.TrimSuffix(filepath.Base(p), ".vql"), string(src)})
	}
	for _, s := range scripts {
		b.Run(s.name, func(b *testing.B) {
			db := New()
			defer db.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Vet(s.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
