package datalog

import "videodb/internal/store"

// CompiledProgram is a program's reusable compilation artifact: the
// validated rules, their stratification, and the compiled execution form
// of every rule. Compilation depends only on the program (plans, strata
// and interned constants are store-independent), so one CompiledProgram
// can back any number of engines over any stores — the cross-query plan
// cache in internal/core holds these and stamps out engines per query
// with NewEngineWith, skipping parse/validate/stratify/compile on a hit.
//
// The artifact is immutable after CompileProgram returns and safe for
// concurrent NewEngineWith calls.
type CompiledProgram struct {
	prog          Program
	predStrata    map[string]int
	ruleStrata    []int
	maxStratum    int
	growsAt       []bool
	intervalsGrow bool
	compiled      []*compiledRule
}

// Program returns the compiled program's rules.
func (cp *CompiledProgram) Program() Program { return cp.prog }

// CompileProgram validates, stratifies, and compiles the program once.
// Rules that fail to compile (e.g. a constraint atom over variables no
// body literal binds) keep a nil entry, exactly as NewEngine leaves
// them, so the error surfaces at evaluation time.
func CompileProgram(prog Program) (*CompiledProgram, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	strata, maxStratum, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	cp := &CompiledProgram{
		prog:       prog,
		predStrata: strata,
		maxStratum: maxStratum,
		growsAt:    make([]bool, maxStratum+1),
		ruleStrata: make([]int, len(prog.Rules)),
	}
	// Compilation needs an engine shell for deltaPositionsIn (idb map and
	// stratification); the shell never touches a store here.
	e := newEngineShell(nil, prog)
	e.predStrata = cp.predStrata
	e.maxStratum = cp.maxStratum
	e.ruleStrata = cp.ruleStrata
	for i, r := range prog.Rules {
		cp.ruleStrata[i] = strata[r.Head.Pred]
		if r.IsConstructive() {
			cp.intervalsGrow = true
			cp.growsAt[cp.ruleStrata[i]] = true
		}
	}
	e.growsAt = cp.growsAt
	e.intervalsGrow = cp.intervalsGrow
	for _, pred := range prog.IDB() {
		e.idb[pred] = true
	}
	e.compileRules()
	cp.compiled = e.compiled
	return cp, nil
}

// NewEngineWith prepares an engine over the store from an
// already-compiled program, skipping validation, stratification, and —
// for the default configuration — rule compilation. EagerExtension
// changes what the plans must contain (it widens the delta positions),
// so it falls back to recompiling, and the engine always behaves exactly
// as NewEngine(st, cp.Program(), opts...) would.
func NewEngineWith(st *store.Store, cp *CompiledProgram, opts ...Option) *Engine {
	e := newEngineShell(st, cp.prog)
	e.predStrata = cp.predStrata
	e.maxStratum = cp.maxStratum
	e.ruleStrata = cp.ruleStrata
	e.intervalsGrow = cp.intervalsGrow
	// growsAt is mutated by the eager option in finishInit: copy it.
	e.growsAt = append([]bool(nil), cp.growsAt...)
	e.finishInit(opts)
	if e.eager {
		e.compileRules()
	} else {
		e.compiled = cp.compiled // read-only: compiled rules are shared
	}
	return e
}
