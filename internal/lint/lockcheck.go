package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck enforces the engine's lock discipline: no blocking
// operation (channel send/receive, select without default, function-
// value callback, file I/O, time.Sleep, WaitGroup/Cond wait) while a
// sync.Mutex or sync.RWMutex is held; no RLock→Lock upgrade on the
// same RWMutex; no nested acquisition that violates the declared
// hierarchy store.Store.mu → core.subRegistry.mu → core.Subscription.qmu
// → core.intake.mu; no branch-divergent Lock/Unlock
// pairing; and no function that releases a write lock and re-acquires
// it, splitting one logical critical section in two (the PR 7
// store.Load race shape — state can change between the sections).
//
// The analysis is intra-procedural, with one extension: functions named
// *Locked or documented as running under a caller-held lock ("Caller
// holds s.mu", "Runs under the store's write lock") are analyzed with a
// synthetic held lock, so the changelog-notify class of bug — invoking
// a subscriber callback under the store write lock (PR 8) — is visible
// without whole-program call graphs. Function literals are analyzed in
// a fresh context (their execution time is unknowable locally) except
// when invoked immediately at their definition site.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "flag blocking operations, hierarchy violations, RLock→Lock upgrades, " +
		"split critical sections, and branch-divergent lock state in the engine packages",
	Scope: []string{"internal/store", "internal/store/segment", "internal/core", "internal/datalog"},
	Run:   runLockCheck,
}

// lockRanks declares the engine lock hierarchy. Keys are type-level
// "pkgname.Type.field" identities; acquisition order must be strictly
// increasing. Locks outside the table are unranked and exempt from the
// hierarchy rule (blocking-operation rules still apply).
var lockRanks = map[string]int{
	"store.Store.mu":        0,
	"core.subRegistry.mu":   1,
	"core.Subscription.qmu": 2,
	"core.intake.mu":        3,
}

// lockHierarchyDoc renders the declared order for diagnostics.
var lockHierarchyDoc = "store.Store.mu → core.subRegistry.mu → core.Subscription.qmu → core.intake.mu"

type lockMode int

const (
	modeRead lockMode = iota
	modeWrite
)

func (m lockMode) String() string {
	if m == modeRead {
		return "read"
	}
	return "write"
}

// heldLock is one acquisition on the current path.
type heldLock struct {
	instance string // expression identity: "s.mu", "db.subs.mu"
	class    string // type identity: "store.Store.mu" ("" if unresolvable)
	mode     lockMode
	rank     int // -1 when unranked
}

// lockState is the abstract state at one program point: the stack of
// held locks plus the set of instances released earlier on this path.
type lockState struct {
	held       []heldLock
	released   map[string]bool
	terminated bool
}

func newLockState() *lockState {
	return &lockState{released: map[string]bool{}}
}

func (st *lockState) clone() *lockState {
	c := &lockState{
		held:       append([]heldLock(nil), st.held...),
		released:   make(map[string]bool, len(st.released)),
		terminated: st.terminated,
	}
	for k := range st.released {
		c.released[k] = true
	}
	return c
}

// signature renders the held set for divergence diagnostics, e.g.
// "{s.mu(write)}".
func (st *lockState) signature() string {
	if len(st.held) == 0 {
		return "{}"
	}
	parts := make([]string, len(st.held))
	for i, h := range st.held {
		parts[i] = fmt.Sprintf("%s(%s)", h.instance, h.mode)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// innermost is the most recently acquired held lock.
func (st *lockState) innermost() heldLock {
	return st.held[len(st.held)-1]
}

func (st *lockState) find(instance string) (heldLock, bool) {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].instance == instance {
			return st.held[i], true
		}
	}
	return heldLock{}, false
}

func (st *lockState) drop(instance string) bool {
	for i := len(st.held) - 1; i >= 0; i-- {
		if st.held[i].instance == instance {
			st.held = append(st.held[:i:i], st.held[i+1:]...)
			return true
		}
	}
	return false
}

// osBlockingFuncs are package-os entry points that hit the filesystem.
var osBlockingFuncs = map[string]bool{
	"os.Open": true, "os.OpenFile": true, "os.Create": true, "os.CreateTemp": true,
	"os.Remove": true, "os.RemoveAll": true, "os.Rename": true, "os.Truncate": true,
	"os.ReadFile": true, "os.WriteFile": true, "os.Mkdir": true, "os.MkdirAll": true,
	"os.ReadDir": true, "os.Stat": true, "os.Chmod": true, "os.Symlink": true,
}

// lockWalker analyzes one function body.
type lockWalker struct {
	pass     *Pass
	reported map[string]bool // dedupe: one diagnostic per (kind, lock) per function
}

func runLockCheck(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, reported: map[string]bool{}}
			st := newLockState()
			if assumesHeldLock(fd) {
				st.held = append(st.held, heldLock{
					instance: "a caller-held lock",
					mode:     modeWrite,
					rank:     -1,
				})
			}
			w.stmt(st, fd.Body)
		}
	}
	return nil
}

// reportOnce emits at most one diagnostic per (kind, lock instance) per
// function — a method doing file I/O under a lock five times is one
// finding, not five.
func (w *lockWalker) reportOnce(pos token.Pos, kind, instance, format string, args ...interface{}) {
	key := kind + "|" + instance
	if w.reported[key] {
		return
	}
	w.reported[key] = true
	w.pass.Reportf(pos, format, args...)
}

// lockOp classifies a call as a lock acquisition/release, returning the
// affected state transition.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	full := funcFullName(info, call)
	var op lockOp
	switch full {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		op = opLock
	case "(*sync.RWMutex).RLock":
		op = opRLock
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		op = opUnlock
	case "(*sync.RWMutex).RUnlock":
		op = opRUnlock
	default:
		return opNone, nil
	}
	return op, recvOfMethodCall(call)
}

func (w *lockWalker) acquire(st *lockState, pos token.Pos, recv ast.Expr, mode lockMode) {
	instance := types.ExprString(recv)
	class := fieldPathKey(w.pass.Info, recv)
	rank := -1
	if r, ok := lockRanks[class]; ok {
		rank = r
	}
	if prev, ok := st.find(instance); ok {
		if prev.mode == modeRead && mode == modeWrite {
			w.reportOnce(pos, "upgrade", instance,
				"RLock on %s upgraded to Lock while still read-held: self-deadlock on the same RWMutex", instance)
		} else if prev.mode == modeWrite && mode == modeWrite {
			w.reportOnce(pos, "double", instance,
				"%s write-locked twice on the same path: self-deadlock", instance)
		}
	}
	if mode == modeWrite && st.released[instance] {
		w.reportOnce(pos, "split", instance,
			"%s write-locked again after an earlier release in the same function: "+
				"the critical section is split and state can change between the sections "+
				"(re-validate under the second lock, or hold one section)", instance)
	}
	if rank >= 0 {
		for _, h := range st.held {
			if h.rank >= 0 && rank <= h.rank && h.instance != instance {
				w.reportOnce(pos, "rank", instance,
					"%s acquired while %s is held: violates the declared lock hierarchy (%s)",
					instance, h.instance, lockHierarchyDoc)
			}
		}
	}
	st.held = append(st.held, heldLock{instance: instance, class: class, mode: mode, rank: rank})
}

func (w *lockWalker) release(st *lockState, recv ast.Expr) {
	instance := types.ExprString(recv)
	if st.drop(instance) {
		st.released[instance] = true
	}
}

// blockingUnderLock reports a blocking operation when any lock is held.
func (w *lockWalker) blockingUnderLock(st *lockState, kind string, pos token.Pos, what string) {
	if len(st.held) == 0 {
		return
	}
	h := st.innermost()
	w.reportOnce(pos, kind, h.instance, "%s while %s is held", what, h.instance)
}

func (w *lockWalker) stmt(st *lockState, s ast.Stmt) {
	if s == nil || st.terminated {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			w.stmt(st, inner)
		}
	case *ast.ExprStmt:
		w.expr(st, s.X)
	case *ast.SendStmt:
		w.expr(st, s.Chan)
		w.expr(st, s.Value)
		w.blockingUnderLock(st, "chan", s.Pos(), "blocking channel send")
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(st, e)
		}
		for _, e := range s.Lhs {
			w.expr(st, e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(st, e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(st, e)
		}
		st.terminated = true
	case *ast.IfStmt:
		w.stmt(st, s.Init)
		w.expr(st, s.Cond)
		thenSt := st.clone()
		w.stmt(thenSt, s.Body)
		elseSt := st.clone()
		if s.Else != nil {
			w.stmt(elseSt, s.Else)
		}
		w.merge(st, s.Pos(), thenSt, elseSt)
	case *ast.ForStmt:
		w.stmt(st, s.Init)
		w.expr(st, s.Cond)
		w.loopBody(st, s.Pos(), func(body *lockState) {
			w.stmt(body, s.Body)
			w.stmt(body, s.Post)
		})
	case *ast.RangeStmt:
		w.expr(st, s.X)
		if tv, ok := w.pass.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.blockingUnderLock(st, "chan", s.Pos(), "blocking receive (range over channel)")
			}
		}
		w.loopBody(st, s.Pos(), func(body *lockState) {
			w.stmt(body, s.Body)
		})
	case *ast.SwitchStmt:
		w.stmt(st, s.Init)
		w.expr(st, s.Tag)
		w.branches(st, s.Pos(), caseBodies(s.Body))
	case *ast.TypeSwitchStmt:
		w.stmt(st, s.Init)
		w.stmt(st, s.Assign)
		w.branches(st, s.Pos(), caseBodies(s.Body))
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blockingUnderLock(st, "chan", s.Pos(), "blocking select (no default)")
		}
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				bodies = append(bodies, cc.Body)
			}
		}
		w.branches(st, s.Pos(), bodies)
	case *ast.GoStmt:
		// The goroutine runs outside this critical section: analyze its
		// body in a fresh context.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.stmt(newLockState(), fl.Body)
		}
		for _, a := range s.Call.Args {
			w.expr(st, a)
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to the end of the body;
		// no state transition now. Deferred closures run at return with
		// the then-current state — approximate with a clone of now.
		if op, recv := classifyLockCall(w.pass.Info, s.Call); op == opUnlock || op == opRUnlock {
			_ = recv
			return
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c := st.clone()
			c.terminated = false
			w.deferredBody(c, fl.Body)
			return
		}
		for _, a := range s.Call.Args {
			w.expr(st, a)
		}
	case *ast.LabeledStmt:
		w.stmt(st, s.Stmt)
	case *ast.IncDecStmt:
		w.expr(st, s.X)
	case *ast.BranchStmt:
		// break/continue/goto: path leaves this block.
		st.terminated = true
	}
}

// deferredBody walks a deferred closure, processing unlocks (they are
// the idiom) without treating other content specially.
func (w *lockWalker) deferredBody(st *lockState, body *ast.BlockStmt) {
	w.stmt(st, body)
}

// loopBody walks a loop body and checks the held set is the same at
// loop entry and loop end — a Lock without its Unlock inside a loop
// deadlocks on the second iteration.
func (w *lockWalker) loopBody(st *lockState, pos token.Pos, walk func(*lockState)) {
	entry := st.signature()
	body := st.clone()
	walk(body)
	if !body.terminated && body.signature() != entry {
		w.reportOnce(pos, "loop", entry,
			"lock state at end of loop body (%s) differs from loop entry (%s): "+
				"unbalanced Lock/Unlock across iterations", body.signature(), entry)
	}
	if !body.terminated {
		*st = *body
	}
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = append(out, cc.Body)
		}
	}
	return out
}

// branches walks each alternative on its own clone and merges.
func (w *lockWalker) branches(st *lockState, pos token.Pos, bodies [][]ast.Stmt) {
	if len(bodies) == 0 {
		return
	}
	states := make([]*lockState, 0, len(bodies)+1)
	for _, b := range bodies {
		c := st.clone()
		for _, inner := range b {
			w.stmt(c, inner)
		}
		states = append(states, c)
	}
	// A switch/select may match nothing: the fall-through state counts.
	states = append(states, st.clone())
	merged := states[0]
	for _, other := range states[1:] {
		w.merge(merged, pos, merged.clone(), other)
	}
	*st = *merged
}

// merge combines two branch outcomes into st, reporting when live
// branches disagree about which locks are held.
func (w *lockWalker) merge(st *lockState, pos token.Pos, a, b *lockState) {
	switch {
	case a.terminated && b.terminated:
		*st = *a
	case a.terminated:
		*st = *b
	case b.terminated:
		*st = *a
	default:
		if a.signature() != b.signature() {
			w.reportOnce(pos, "diverge", a.signature()+b.signature(),
				"lock state diverges across branches: %s vs %s — every path must "+
					"release exactly the locks it acquired", a.signature(), b.signature())
		}
		// Continue with the intersection to avoid cascading reports.
		var kept []heldLock
		for _, h := range a.held {
			if _, ok := b.find(h.instance); ok {
				kept = append(kept, h)
			}
		}
		a.held = kept
		for k := range b.released {
			a.released[k] = true
		}
		*st = *a
	}
}

// expr scans an expression tree for lock transitions and blocking
// operations.
func (w *lockWalker) expr(st *lockState, e ast.Expr) {
	if e == nil || st.terminated {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		// Immediately-invoked function literal: runs here, inherits the
		// current lock state.
		if fl, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
			for _, a := range e.Args {
				w.expr(st, a)
			}
			w.stmt(st, fl.Body)
			return
		}
		for _, a := range e.Args {
			w.expr(st, a)
		}
		if op, recv := classifyLockCall(w.pass.Info, e); op != opNone {
			switch op {
			case opLock:
				w.acquire(st, e.Pos(), recv, modeWrite)
			case opRLock:
				w.acquire(st, e.Pos(), recv, modeRead)
			case opUnlock, opRUnlock:
				w.release(st, recv)
			}
			return
		}
		w.checkBlockingCall(st, e)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.blockingUnderLock(st, "chan", e.Pos(), "blocking channel receive")
		}
		w.expr(st, e.X)
	case *ast.BinaryExpr:
		w.expr(st, e.X)
		w.expr(st, e.Y)
	case *ast.ParenExpr:
		w.expr(st, e.X)
	case *ast.SelectorExpr:
		w.expr(st, e.X)
	case *ast.IndexExpr:
		w.expr(st, e.X)
		w.expr(st, e.Index)
	case *ast.SliceExpr:
		w.expr(st, e.X)
		w.expr(st, e.Low)
		w.expr(st, e.High)
		w.expr(st, e.Max)
	case *ast.StarExpr:
		w.expr(st, e.X)
	case *ast.TypeAssertExpr:
		w.expr(st, e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(st, el)
		}
	case *ast.KeyValueExpr:
		w.expr(st, e.Value)
	case *ast.FuncLit:
		// A literal not invoked here runs at an unknown time under
		// unknown locks: analyze in a fresh context.
		w.stmt(newLockState(), e.Body)
	}
}

// checkBlockingCall flags calls that can block while a lock is held.
func (w *lockWalker) checkBlockingCall(st *lockState, call *ast.CallExpr) {
	if len(st.held) == 0 {
		return
	}
	obj := calleeObject(w.pass.Info, call)
	switch obj := obj.(type) {
	case *types.Func:
		full := obj.FullName()
		switch {
		case full == "time.Sleep":
			w.blockingUnderLock(st, "sleep", call.Pos(), "time.Sleep")
		case full == "(*sync.WaitGroup).Wait" || full == "(*sync.Cond).Wait":
			w.blockingUnderLock(st, "wait", call.Pos(), "blocking wait ("+full+")")
		case osBlockingFuncs[full] || strings.HasPrefix(full, "(*os.File)."):
			w.blockingUnderLock(st, "io", call.Pos(), "file I/O ("+full+")")
		case full == "(*bufio.Writer).Flush":
			w.blockingUnderLock(st, "io", call.Pos(), "file I/O ("+full+")")
		}
	case *types.Var:
		// Calling through a function value — a field, parameter, or
		// variable — hands control to unknown code while the lock is
		// held: the changelog subscriber-callback bug class (PR 8).
		if _, ok := obj.Type().Underlying().(*types.Signature); ok {
			h := st.innermost()
			w.reportOnce(call.Pos(), "callback", h.instance,
				"call through function value %s while %s is held: callbacks can "+
					"block or re-enter the lock (deliver outside the critical section)",
				types.ExprString(call.Fun), h.instance)
		}
	}
}
