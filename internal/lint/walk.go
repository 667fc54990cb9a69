package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Shared AST/type helpers for the analyzers.

// calleeObject resolves the object a call invokes: a *types.Func for
// declared functions and methods, a *types.Var for function-valued
// variables, fields, and parameters, nil for everything else
// (conversions, builtins, computed expressions).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// funcFullName returns the go/types full name of the called function —
// "(*sync.Mutex).Lock", "time.Sleep" — or "" when the call does not
// resolve to a declared function or method.
func funcFullName(info *types.Info, call *ast.CallExpr) string {
	if fn, ok := calleeObject(info, call).(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// recvOfMethodCall returns the receiver expression of a method call
// written as X.M(...), or nil.
func recvOfMethodCall(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// fieldPathKey renders a selector chain like s.subs.mu into a
// type-level key "pkgname.Type.field" identifying which struct field is
// being addressed. It returns "" when the expression is not a field
// selection the type-checker resolved.
func fieldPathKey(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return ""
	}
	recv := selection.Recv()
	for {
		p, ok := recv.(*types.Pointer)
		if !ok {
			break
		}
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	return pkg + "." + obj.Name() + "." + sel.Sel.Name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// mentionsContext reports whether any expression under n has type
// context.Context — a loop body that passes, checks, or selects on a
// context mentions one.
func mentionsContext(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		e, ok := x.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[e]; ok && tv.Type != nil && isContextType(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// assumedHeldRE matches doc comments that declare a function runs with
// a caller-held lock — the repo's documented convention for changelog
// and maintenance internals ("Caller holds s.mu", "Runs under the
// store's write lock").
var assumedHeldRE = regexp.MustCompile(`(?i)\bcallers?\s+(?:must\s+)?holds?\b|\bruns?\s+under\s+the\b[^.]*\block\b|\bwith\s+the\b[^.]*\block\s+held\b`)

// assumesHeldLock reports whether the function is documented or named
// (FooLocked) as running under a lock its caller holds.
func assumesHeldLock(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	return fd.Doc != nil && assumedHeldRE.MatchString(fd.Doc.Text())
}
