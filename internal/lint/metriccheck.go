package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricCheck enforces the server's metric conventions: every metric
// name matches videodb_[a-z0-9_]+; metrics are declared (helper
// registration or literal `# TYPE` exposition) in a single function;
// and the Prometheus exposition and the /v1/stats engine totals stay in
// sync — every atomic counter of the metrics struct that one side reads
// must be read by the other, and a counter that is incremented but
// exposed by neither side is dead weight that silently lies to
// operators.
var MetricCheck = &Analyzer{
	Name: "metriccheck",
	Doc: "flag metric names off the videodb_* convention, registration outside the " +
		"single site, and Prometheus and /v1/stats divergence",
	Scope: []string{"internal/server"},
	Run:   runMetricCheck,
}

var (
	metricTokenRE = regexp.MustCompile(`videodb_[A-Za-z0-9_]*`)
	metricNameRE  = regexp.MustCompile(`^videodb_[a-z0-9_]+$`)
	expoLineRE    = regexp.MustCompile(`# (?:TYPE|HELP) \S+`)
	typeLineRE    = regexp.MustCompile(`# TYPE (\S+)`)
)

// metricHelperNames are the local registration helpers whose first
// argument is a metric name.
var metricHelperNames = map[string]bool{"counter": true, "gauge": true, "histogram": true}

func runMetricCheck(pass *Pass) error {
	var expoFns []*ast.FuncDecl          // functions writing `# TYPE` exposition text
	declared := map[string][]token.Pos{} // metric name → declaration positions

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			isExpo := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BasicLit:
					if n.Kind != token.STRING {
						return true
					}
					text, err := strconv.Unquote(n.Value)
					if err != nil {
						return true
					}
					// Convention: every videodb_* token in any literal.
					for _, tok := range metricTokenRE.FindAllString(text, -1) {
						if !metricNameRE.MatchString(tok) {
							pass.Reportf(n.Pos(),
								"metric name %q violates the videodb_[a-z0-9_]+ convention", tok)
						}
					}
					// `# TYPE`/`# HELP` lines mark exposition; only the
					// TYPE line is the metric's declaration.
					if expoLineRE.MatchString(text) {
						isExpo = true
					}
					for _, m := range typeLineRE.FindAllStringSubmatch(text, -1) {
						// Skip format placeholders ("# TYPE %s counter"
						// inside a helper): the helper's call sites carry
						// the names.
						if strings.Contains(m[1], "%") {
							continue
						}
						declared[m[1]] = append(declared[m[1]], n.Pos())
					}
				case *ast.CallExpr:
					// Registration helpers: counter("name", v), gauge("name", v).
					name := helperName(n)
					if metricHelperNames[name] && len(n.Args) > 0 {
						if lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if s, err := strconv.Unquote(lit.Value); err == nil {
								if !metricNameRE.MatchString(s) {
									pass.Reportf(lit.Pos(),
										"metric name %q violates the videodb_[a-z0-9_]+ convention", s)
								}
								declared[s] = append(declared[s], lit.Pos())
							}
						}
					}
				}
				return true
			})
			if isExpo {
				expoFns = append(expoFns, fd)
			}
		}
	}

	// One exposition site.
	if len(expoFns) > 1 {
		for _, fd := range expoFns[1:] {
			pass.Reportf(fd.Pos(),
				"metric exposition in %s: all metrics must be written from the single "+
					"registration site %s", fd.Name.Name, expoFns[0].Name.Name)
		}
	}

	// Duplicate declarations of one metric name.
	var names []string
	for name := range declared {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seen := map[int]bool{}
		for _, pos := range declared[name] {
			seen[pass.Fset.Position(pos).Line] = true
		}
		if len(seen) > 1 {
			pass.Reportf(declared[name][1],
				"metric %q is declared at %d sites: each metric has exactly one "+
					"declaration", name, len(seen))
		}
	}

	checkMirror(pass, expoFns)
	return nil
}

// helperName returns the bare callee name for local helper calls
// (declared functions, closures, or function-typed variables).
func helperName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// checkMirror verifies the Prometheus exposition and the /v1/stats
// payload (every other function that loads a counter) read the same
// counters. The metrics-holding structs are those with at least three
// atomic.Uint64/atomic.Int64 fields.
func checkMirror(pass *Pass, expoFns []*ast.FuncDecl) {
	counters := map[string]bool{} // field names of the metrics struct(s)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stype, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			var atomics []string
			for _, field := range stype.Fields.List {
				tv, ok := pass.Info.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				switch tv.Type.String() {
				case "sync/atomic.Uint64", "sync/atomic.Int64":
					for _, name := range field.Names {
						atomics = append(atomics, name.Name)
					}
				}
			}
			if len(atomics) >= 3 {
				for _, name := range atomics {
					counters[name] = true
				}
			}
			return true
		})
	}
	if len(counters) == 0 {
		return
	}

	isExpo := map[*ast.FuncDecl]bool{}
	for _, fd := range expoFns {
		isExpo[fd] = true
	}
	promLoad := map[string]token.Pos{}
	mirrorLoad := map[string]token.Pos{}
	added := map[string]token.Pos{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				outer, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				inner, ok := ast.Unparen(outer.X).(*ast.SelectorExpr)
				if !ok || !counters[inner.Sel.Name] {
					return true
				}
				field := inner.Sel.Name
				switch outer.Sel.Name {
				case "Load":
					if isExpo[fd] {
						if _, ok := promLoad[field]; !ok {
							promLoad[field] = call.Pos()
						}
					} else {
						if _, ok := mirrorLoad[field]; !ok {
							mirrorLoad[field] = call.Pos()
						}
					}
				case "Add", "Store":
					if _, ok := added[field]; !ok {
						added[field] = call.Pos()
					}
				}
				return true
			})
		}
	}

	var fields []string
	for f := range counters {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	for _, field := range fields {
		pPos, inProm := promLoad[field]
		mPos, inMirror := mirrorLoad[field]
		aPos, isAdded := added[field]
		switch {
		case inProm && !inMirror:
			pass.Reportf(pPos,
				"counter %s is exposed to Prometheus but missing from /v1/stats: "+
					"the two views must not diverge", field)
		case inMirror && !inProm:
			pass.Reportf(mPos,
				"counter %s is in /v1/stats but never exposed to Prometheus: "+
					"the two views must not diverge", field)
		case isAdded && !inProm && !inMirror:
			pass.Reportf(aPos,
				"counter %s is incremented but exposed by neither Prometheus nor "+
					"/v1/stats: dead metric (expose it or delete it)", field)
		}
	}
}
