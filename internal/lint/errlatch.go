package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// ErrLatch enforces the PR 5 fail-fast contract around latched
// write-path errors (store.Store.backendErr, segment.Store.err): once a
// backend write has failed, no further mutation may be acknowledged.
//
// A latch is an error-typed struct field whose declaration comment
// mentions "latch". For each owner type the analyzer derives the gate
// methods — those whose body tests `recv.<latch> != nil` and returns —
// and then checks:
//
//	A. every exported method on the owner that directly mutates
//	   receiver state consults the latch first (calls a gate method or
//	   reads the latch before the first mutation);
//	B. assignments to the latch never drop it: writing nil is always a
//	   finding, and a non-nil write must be guarded by a `latch == nil`
//	   check (or an earlier gate call) so the FIRST failure is the one
//	   that sticks.
var ErrLatch = &Analyzer{
	Name: "errlatch",
	Doc: "flag write-path methods that mutate state without consulting the latched " +
		"backend error, and latch assignments that drop the first failure",
	Scope: []string{"internal/store", "internal/store/segment"},
	Run:   runErrLatch,
}

var latchCommentRE = regexp.MustCompile(`(?i)\blatch`)

// latchInfo describes one latched error field.
type latchInfo struct {
	owner *types.Named
	field string
	gates map[string]bool // methods that consult the latch and bail
}

func runErrLatch(pass *Pass) error {
	latches := findLatches(pass)
	if len(latches) == 0 {
		return nil
	}
	for _, l := range latches {
		findGates(pass, l)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			for _, l := range latches {
				if named := recvNamed(pass, fd); named == l.owner {
					checkGateBeforeMutation(pass, fd, l)
					checkLatchAssignments(pass, fd, l)
				}
			}
		}
	}
	return nil
}

// findLatches locates error-typed struct fields documented as latches.
func findLatches(pass *Pass) []*latchInfo {
	var out []*latchInfo
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			stype, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Defs[ts.Name]
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			for _, field := range stype.Fields.List {
				tv, ok := pass.Info.Types[field.Type]
				if !ok || tv.Type == nil || tv.Type.String() != "error" {
					continue
				}
				text := field.Doc.Text() + " " + field.Comment.Text()
				if !latchCommentRE.MatchString(text) {
					continue
				}
				for _, name := range field.Names {
					out = append(out, &latchInfo{
						owner: named,
						field: name.Name,
						gates: map[string]bool{},
					})
				}
			}
			return true
		})
	}
	return out
}

// recvNamed resolves the named type of a method receiver.
func recvNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) == 0 {
		return nil
	}
	tv, ok := pass.Info.Types[fd.Recv.List[0].Type]
	if !ok || tv.Type == nil {
		return nil
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isLatchRead reports whether e reads l's field off the method
// receiver (recv.backendErr, s.err, …).
func isLatchRead(pass *Pass, l *latchInfo, recv string, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != l.field {
		return false
	}
	root := rootIdent(sel.X)
	return root != nil && root.Name == recv
}

// findGates records the owner's methods whose body contains
// `if recv.<latch> != nil { … return … }` — the gate idiom — or that
// return the latch directly.
func findGates(pass *Pass, l *latchInfo) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || recvNamed(pass, fd) != l.owner {
				continue
			}
			recv := receiverIdent(fd)
			gate := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok || gate {
					return !gate
				}
				cmp, ok := ifs.Cond.(*ast.BinaryExpr)
				if !ok || cmp.Op != token.NEQ {
					return true
				}
				if isLatchRead(pass, l, recv, cmp.X) || isLatchRead(pass, l, recv, cmp.Y) {
					gate = true
				}
				return !gate
			})
			if gate {
				l.gates[fd.Name.Name] = true
			}
		}
	}
}

// checkGateBeforeMutation enforces rule A on exported methods.
func checkGateBeforeMutation(pass *Pass, fd *ast.FuncDecl, l *latchInfo) {
	if !fd.Name.IsExported() || l.gates[fd.Name.Name] {
		return
	}
	recv := receiverIdent(fd)
	if recv == "" {
		return
	}
	consulted := false
	var firstMutation ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if firstMutation != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn, ok := calleeObject(pass.Info, n).(*types.Func); ok {
				if l.gates[fn.Name()] && sameReceiverCall(n, recv) {
					consulted = true
				}
			}
		case *ast.IfStmt:
			if cond, ok := n.Cond.(*ast.BinaryExpr); ok {
				if isLatchRead(pass, l, recv, cond.X) || isLatchRead(pass, l, recv, cond.Y) {
					consulted = true
				}
			}
		case *ast.AssignStmt:
			if consulted {
				return true
			}
			for _, lhs := range n.Lhs {
				if mutatesReceiver(recv, lhs) {
					firstMutation = n
					return false
				}
			}
		case *ast.IncDecStmt:
			if !consulted && mutatesReceiver(recv, n.X) {
				firstMutation = n
				return false
			}
		case *ast.FuncLit:
			return false // runs at an unknown time
		}
		return true
	})
	if firstMutation != nil {
		pass.Reportf(firstMutation.Pos(),
			"%s.%s mutates receiver state before consulting the latched error %s.%s: "+
				"once the backend has failed no further mutation may be acknowledged "+
				"(gate with the latch check first)",
			l.owner.Obj().Name(), fd.Name.Name, l.owner.Obj().Name(), l.field)
	}
}

// sameReceiverCall reports whether the call's receiver chain is rooted
// at recv (s.writable(), s.tail.healthy()).
func sameReceiverCall(call *ast.CallExpr, recv string) bool {
	x := recvOfMethodCall(call)
	if x == nil {
		return false
	}
	root := rootIdent(x)
	return root != nil && root.Name == recv
}

// mutatesReceiver reports whether the lvalue writes through the
// receiver (s.objects[k] = v, s.err = e, s.schemaVer++).
func mutatesReceiver(recv string, lhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil || root.Name != recv {
		return false
	}
	// `s := ...` rebinding is not a receiver mutation; require a
	// selector or index somewhere in the chain.
	switch ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return false
	}
	return true
}

// checkLatchAssignments enforces rule B on every assignment to the
// latch field within the method.
func checkLatchAssignments(pass *Pass, fd *ast.FuncDecl, l *latchInfo) {
	recv := receiverIdent(fd)
	if recv == "" {
		return
	}
	// Guard condition seen on the path: latch == nil, or an earlier
	// gate call in the body. Approximated by lexical order — the repo
	// idiom puts the guard directly around the store.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for i, lhs := range as.Lhs {
			if !isLatchRead(pass, l, recv, lhs) {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && id.Name == "nil" {
				pass.Reportf(as.Pos(),
					"assignment clears the latched error %s.%s: the latch records the "+
						"FIRST failure and must never be dropped",
					l.owner.Obj().Name(), l.field)
				continue
			}
			if !latchStoreGuarded(pass, fd, l, recv, as) {
				pass.Reportf(as.Pos(),
					"unguarded store to latched error %s.%s may overwrite the first "+
						"failure: guard with `if %s.%s == nil`",
					l.owner.Obj().Name(), l.field, recv, l.field)
			}
		}
		return true
	})
}

// latchStoreGuarded reports whether the assignment is protected by a
// `latch == nil` check or preceded by a gate call: either guarantees
// only the first failure is recorded.
func latchStoreGuarded(pass *Pass, fd *ast.FuncDecl, l *latchInfo, recv string, target *ast.AssignStmt) bool {
	guarded := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if guarded {
			return false
		}
		switch n := n.(type) {
		case *ast.IfStmt:
			if containsStmt(n, target) {
				if condChecksLatchNil(pass, l, recv, n.Cond) {
					guarded = true
					return false
				}
			}
		case *ast.CallExpr:
			if n.Pos() < target.Pos() {
				if fn, ok := calleeObject(pass.Info, n).(*types.Func); ok {
					if l.gates[fn.Name()] && sameReceiverCall(n, recv) {
						guarded = true
						return false
					}
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, visit)
	return guarded
}

// condChecksLatchNil reports whether the condition (possibly a &&/||
// chain) includes `recv.latch == nil`.
func condChecksLatchNil(pass *Pass, l *latchInfo, recv string, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		if cmp.Op != token.EQL {
			return true
		}
		isNil := func(e ast.Expr) bool {
			id, ok := ast.Unparen(e).(*ast.Ident)
			return ok && id.Name == "nil"
		}
		if (isLatchRead(pass, l, recv, cmp.X) && isNil(cmp.Y)) ||
			(isLatchRead(pass, l, recv, cmp.Y) && isNil(cmp.X)) {
			found = true
		}
		return !found
	})
	return found
}

// containsStmt reports whether target sits inside n.
func containsStmt(n ast.Node, target ast.Node) bool {
	return n.Pos() <= target.Pos() && target.End() <= n.End()
}
