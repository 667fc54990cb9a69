package core

import "context"

// Gate is an admission hook invoked at the top of every evaluation
// entrypoint (QueryContext and friends, LoadScriptContext,
// ExplainContext, MaterializeContext, ViewContext) before any parsing or
// engine work. It either admits the evaluation — returning a release
// function the entrypoint calls when the evaluation finishes — or
// refuses it with an error, which the entrypoint returns verbatim.
//
// The gate is how an embedder layers load control onto the per-query
// cancellation/budget machinery: the budgets bound how much one admitted
// evaluation may cost, the gate bounds how many evaluations run at all.
// internal/server implements its tenant-aware admission controller at
// the HTTP layer (where the tenant identity and the 429 wire contract
// live, and where a rejection can skip request parsing entirely); the
// DB-level gate serves embedders that drive core directly — benchmarks,
// scripts, an in-process loadgen — with exactly the same semantics.
//
// A Gate must not call back into the DB's evaluation entrypoints: the
// entrypoints are not re-entrant through the gate, so a gate that
// queries would admit through itself recursively. Internal maintenance
// work (materialized-view refresh batches, subscription pumps) runs
// below the gate deliberately — it executes on behalf of already-
// admitted work or a standing registration, and gating it would let a
// saturated gate deadlock maintenance.
type Gate func(ctx context.Context) (release func(), err error)

// WithGate installs an admission gate on the DB's evaluation
// entrypoints. A nil gate (the default) admits everything at zero cost.
func WithGate(g Gate) Option { return func(db *DB) { db.gate = g } }

// releaseNothing is the no-op release shared by all ungated admissions,
// so the gateless hot path allocates nothing.
func releaseNothing() {}

// enter applies the DB's admission gate, if any. Callers must invoke the
// returned release exactly once when err is nil; release is never nil.
func (db *DB) enter(ctx context.Context) (func(), error) {
	if db.gate == nil {
		return releaseNothing, nil
	}
	release, err := db.gate(ctx)
	if err != nil {
		return nil, err
	}
	if release == nil {
		release = releaseNothing
	}
	return release, nil
}
