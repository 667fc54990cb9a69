package datalog

import "time"

// Query profiling: the EXPLAIN ANALYZE companion to Explain. An engine
// built with WithProfiling records, while the fixpoint runs, where the
// evaluation spent its time — per rule (wall time, task evaluations,
// firings, newly derived tuples) and per TP round (wall time, tasks,
// firings, derived) — plus the solver-budget consumption of the run.
// The record is assembled into an immutable Profile
// when the run ends and published under the engine's stats lock, so
// concurrent readers never observe a half-built profile.
//
// Profiling is opt-in because the per-task time.Now calls, while cheap,
// are not free on the hot path; an unprofiled engine pays only a nil
// check per task.

// Profile reports where a fixpoint computation spent its time.
//
// Timing semantics: rule and round times are wall-clock. The rule times
// of a round sum to at most that round's time (the round also pays
// advance/boundary work).
type Profile struct {
	Rules  []RuleProfile  `json:"rules"`
	Rounds []RoundProfile `json:"rounds"`

	// Total is the wall time of the whole fixpoint, including snapshot
	// and cache warming outside any round.
	Total time.Duration `json:"totalNs"`

	// SolverSteps is the number of elementary constraint-solver steps the
	// run consumed from its budget (compare MaxSolverSteps).
	SolverSteps int64 `json:"solverSteps"`
}

// RuleProfile is the profile of one rule across the whole run.
type RuleProfile struct {
	Rule    string        `json:"rule"`    // rendered rule
	Stratum int           `json:"stratum"` // stratum the rule evaluates in
	Evals   int           `json:"evals"`   // (rule, delta) tasks executed
	Firings int           `json:"firings"` // successful head instantiations
	Derived int           `json:"derived"` // tuples this rule newly derived
	Time    time.Duration `json:"ns"`      // cumulative evaluation wall time
}

// RoundProfile is the profile of one TP round.
type RoundProfile struct {
	Round   int           `json:"round"`   // 1-based, global across strata
	Stratum int           `json:"stratum"` // stratum the round ran in
	Tasks   int           `json:"tasks"`   // (rule, delta) tasks evaluated
	Firings int           `json:"firings"` // head instantiations this round
	Derived int           `json:"derived"` // tuples newly derived this round
	Time    time.Duration `json:"ns"`      // round wall time (tasks + boundary)
}

// WithProfiling enables the per-rule / per-round profiler for this
// engine's Run; read the result with Profile after the run completes.
func WithProfiling() Option { return func(e *Engine) { e.profiling = true } }

// Profile returns the profile of the completed Run, or nil if the engine
// was not built with WithProfiling or has not finished running. It is
// safe to call concurrently with Run.
func (e *Engine) Profile() *Profile {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.profile
}

// profileState accumulates per-rule counters while a profiled run
// executes; only the run goroutine writes it.
type profileState struct {
	ruleTime    []time.Duration
	ruleEvals   []int
	ruleFirings []int
	ruleDerived []int
	rounds      []RoundProfile
}

func newProfileState(nRules int) *profileState {
	return &profileState{
		ruleTime:    make([]time.Duration, nRules),
		ruleEvals:   make([]int, nRules),
		ruleFirings: make([]int, nRules),
		ruleDerived: make([]int, nRules),
	}
}

func (p *profileState) addEval(rule int, d time.Duration) {
	p.ruleTime[rule] += d
	p.ruleEvals[rule]++
}

// evalTask evaluates one (rule, delta) task, timing it when profiling.
func (e *Engine) evalTask(t evalTask) error {
	if e.prof == nil {
		return e.evalRule(t.ruleIdx, t.delta)
	}
	start := time.Now()
	err := e.evalRule(t.ruleIdx, t.delta)
	e.prof.addEval(t.ruleIdx, time.Since(start))
	return err
}

// buildProfile assembles and publishes the immutable Profile at the end
// of a profiled run (called from the run goroutine's final defer, after
// the stats have their solver steps).
func (e *Engine) buildProfile(total time.Duration) {
	p := &Profile{
		Rules:       make([]RuleProfile, len(e.prog.Rules)),
		Rounds:      append([]RoundProfile{}, e.prof.rounds...),
		Total:       total,
		SolverSteps: e.budget.Spent(),
	}
	for i, r := range e.prog.Rules {
		p.Rules[i] = RuleProfile{
			Rule:    r.String(),
			Stratum: e.ruleStrata[i],
			Evals:   e.prof.ruleEvals[i],
			Firings: e.prof.ruleFirings[i],
			Derived: e.prof.ruleDerived[i],
			Time:    e.prof.ruleTime[i],
		}
	}
	e.statsMu.Lock()
	e.profile = p
	e.statsMu.Unlock()
}
