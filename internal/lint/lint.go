// Package lint is videolint: two project-specific static analyzers
// that mechanically enforce engine invariants DESIGN.md states in prose
// — lock discipline in the store/engine packages (lockcheck) and
// context propagation on request-serving paths (ctxcheck). Contracts a
// dynamic test can enumerate (the error latch, metrics parity) are held
// by tests instead; BUGS.md lists which test guards which bug shape.
//
// The suite is deliberately built on the standard library alone
// (go/ast, go/types, go/importer): the build environment is offline, so
// golang.org/x/tools/go/analysis is unavailable. The Analyzer/Pass API
// mirrors that package's shape closely enough that migrating onto it
// later is a rename, and cmd/videolint speaks enough of the
// unitchecker protocol to run under `go vet -vettool=`.
//
// Suppressions: a comment of the form
//
//	//videolint:ignore <analyzer> <reason>
//
// on the flagged line, or on the line directly above it, suppresses
// that analyzer's diagnostics there. The reason is mandatory — an
// ignore without one is itself a diagnostic — so every suppression in
// the tree carries a written justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one analysis unit, the local analogue of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// videolint:ignore directives.
	Name string
	// Doc is a one-paragraph description shown by `videolint -help`.
	Doc string
	// Scope lists import-path suffixes the analyzer applies to. Empty
	// means every package. The driver applies the scope; calling Run
	// directly (as the golden tests do) bypasses it.
	Scope []string
	// Run performs the analysis, reporting findings through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the analyzer's scope covers the package
// with the given import path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, suffix := range a.Scope {
		if path == suffix || strings.HasSuffix(path, "/"+suffix) {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, with its suppression state resolved.
type Diagnostic struct {
	Analyzer   string         `json:"analyzer"`
	Pos        token.Position `json:"pos"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"suppressed,omitempty"`
	// Reason is the justification given by the matching
	// videolint:ignore directive, when suppressed.
	Reason string `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
	if d.Suppressed {
		s += fmt.Sprintf(" (suppressed: %s)", d.Reason)
	}
	return s
}

// Analyzers returns the full registered suite, in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, CtxCheck}
}

// ignoreRE matches a videolint:ignore directive. The directive marker
// must open the comment; analyzer and reason are mandatory.
var ignoreRE = regexp.MustCompile(`^//videolint:ignore(?:\s+(\S+))?(?:\s+(.+?))?\s*$`)

// ignoreDirective is one parsed suppression comment.
type ignoreDirective struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
}

// collectIgnores parses every suppression directive in the file,
// reporting malformed ones (missing analyzer, missing reason, or an
// analyzer name the suite does not register) as diagnostics — an
// unexplained or dangling suppression must never silence anything.
func collectIgnores(fset *token.FileSet, f *ast.File, known map[string]bool, diags *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//videolint:ignore") {
				continue
			}
			// A second "//" starts trailing commentary (the golden
			// packages put `// want` assertions there); it is not part
			// of the directive.
			text := c.Text
			if idx := strings.Index(text[2:], "//"); idx >= 0 {
				text = strings.TrimRight(text[:idx+2], " \t")
			}
			m := ignoreRE.FindStringSubmatch(text)
			bad := func(format string, args ...interface{}) {
				*diags = append(*diags, Diagnostic{
					Analyzer: "videolint",
					Pos:      fset.Position(c.Pos()),
					Message:  fmt.Sprintf(format, args...),
				})
			}
			switch {
			case m == nil || m[1] == "":
				bad("malformed //videolint:ignore: want \"//videolint:ignore <analyzer> <reason>\"")
			case !known[m[1]]:
				bad("//videolint:ignore names unknown analyzer %q", m[1])
			case m[2] == "":
				bad("//videolint:ignore %s is missing its reason: every suppression must say why", m[1])
			default:
				out = append(out, ignoreDirective{
					analyzer: m[1],
					reason:   m[2],
					line:     fset.Position(c.Pos()).Line,
					pos:      c.Pos(),
				})
			}
		}
	}
	return out
}

// applyIgnores marks diagnostics matched by a directive on their own
// line or the line directly above as suppressed.
func applyIgnores(diags []Diagnostic, ignores map[string][]ignoreDirective) {
	for i := range diags {
		d := &diags[i]
		for _, ig := range ignores[d.Pos.Filename] {
			if ig.analyzer != d.Analyzer {
				continue
			}
			if ig.line == d.Pos.Line || ig.line == d.Pos.Line-1 {
				d.Suppressed = true
				d.Reason = ig.reason
				break
			}
		}
	}
}

// Run executes every applicable analyzer over every package and returns
// all diagnostics — suppressed ones included, marked — sorted by
// position. The error aggregates analyzer failures, not findings.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	// Directive names are validated against the whole suite, not just the
	// analyzers selected for this run: a subset invocation (bench timing a
	// single pass, a future -run flag) must not flag another pass's
	// suppressions as unknown.
	known := map[string]bool{"videolint": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	ignores := map[string][]ignoreDirective{}
	for _, pkg := range pkgs {
		// The invariants govern production code: test files are
		// type-checked with the package (vet mode hands them to us) but
		// not analyzed — tests mint contexts and split lock sections as
		// a matter of course.
		var files []*ast.File
		for _, f := range pkg.Files {
			file := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			files = append(files, f)
			ignores[file] = append(ignores[file], collectIgnores(pkg.Fset, f, known, &diags)...)
		}
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	applyIgnores(diags, ignores)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// Unsuppressed filters to the diagnostics that still demand attention.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
