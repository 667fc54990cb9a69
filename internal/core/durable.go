package core

import (
	"context"
	"fmt"

	"videodb/internal/datalog"
	"videodb/internal/object"
	"videodb/internal/parser"
	"videodb/internal/store"
	"videodb/internal/store/segment"
)

// OpenSegment opens (or creates) a durable video database on the
// persistent segment backend in dir: facts live in immutable segment
// files served through a byte-budgeted block cache (the corpus does not
// need to fit in memory), recovery reads the manifest plus a short tail
// log, and Checkpoint/Close flush the memtable into a new segment. Call
// Close before exiting. Rules are program source, not data — re-add them
// (or reload scripts) after opening.
func OpenSegment(dir string, opts ...segment.Option) (*DB, error) {
	b, err := segment.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	st, err := store.OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return New(WithStore(st)), nil
}

// Checkpoint flushes the durable database's memtable into a new segment
// and truncates its tail log; an in-memory database returns an error.
func (db *DB) Checkpoint() error { return db.st.Checkpoint() }

// Close stops all live subscriptions, flushes and closes the database's
// durable state (a no-op for in-memory stores), and releases the DB's
// pin on the value-interner epoch; once every DB in the process is
// closed the intern table is reclaimed. Safe to call more than once.
func (db *DB) Close() error {
	db.closeSubscriptions()
	err := db.st.Close()
	db.closeOnce.Do(datalog.ReleaseInterner)
	return err
}

// Explain renders the evaluation strategy for the database's current
// rules (plus the query's synthesized rule, if any) — strata, body
// orders, index usage. The first line says whether the goal was
// specialized to its constants ("specialized from costar(o1, Y, S)",
// followed by the rewritten rules) or why not.
func (db *DB) Explain(query string) (string, error) {
	return db.ExplainContext(context.Background(), query)
}

// ExplainContext is Explain under a context. Explanation itself does not
// run the fixpoint, but the context keeps the API uniform with
// QueryContext and lets future plan-time work observe cancellation.
func (db *DB) ExplainContext(ctx context.Context, query string) (string, error) {
	release, err := db.enter(ctx)
	if err != nil {
		return "", err
	}
	defer release()
	q, err := parser.ParseQuery(query)
	if err != nil {
		return "", err
	}
	eng, plan, err := db.newEngine(ctx, q)
	if err != nil {
		return "", err
	}
	header := "specialized from " + q.Atom.String()
	if plan.fallback != "" {
		header = "not specialized: " + plan.fallback
	}
	return header + "\n" + eng.Explain(), nil
}

// Why evaluates the program with provenance tracing and renders the
// derivation tree of a ground atom, e.g. Why(`contains(gi1, gi3)`): the
// answer to "why is this in the fixpoint?". The atom must be a single
// ground relational atom.
func (db *DB) Why(atomSrc string) (string, error) {
	q, err := parser.ParseQuery(atomSrc)
	if err != nil {
		return "", err
	}
	if q.Rule != nil {
		return "", fmt.Errorf("core: Why needs a single ground atom, got a conjunctive query")
	}
	args := make([]object.Value, len(q.Atom.Args))
	for i, t := range q.Atom.Args {
		if t.IsVar() || t.IsConcat() {
			return "", fmt.Errorf("core: Why needs a ground atom (argument %d is %s)", i+1, t)
		}
		args[i] = t.Value()
	}
	rules := append([]datalog.Rule(nil), db.rules...)
	rules = append(rules, db.taxonomy.Rules()...)
	prog := datalog.NewProgram(rules...)
	if !db.noPruning {
		prog = prog.Reachable(q.Atom.Pred)
	}
	opts := append([]datalog.Option(nil), db.engOpts...)
	opts = append(opts, datalog.TraceProvenance())
	eng, err := datalog.NewEngine(db.st, prog, opts...)
	if err != nil {
		return "", err
	}
	return eng.Why(q.Atom.Pred, args...)
}
