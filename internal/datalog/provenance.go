package datalog

import (
	"fmt"
	"strings"

	"videodb/internal/object"
)

// Provenance tracing: with TraceProvenance enabled, the engine records,
// for every derived tuple, the first rule instantiation that produced it.
// Why renders the resulting derivation tree — the answer to "why is this
// tuple in the fixpoint?".

// TraceProvenance makes the engine record one derivation per derived
// tuple (modest overhead; off by default).
func TraceProvenance() Option { return func(e *Engine) { e.trace = true } }

// PremiseFact is one relational premise of a derivation.
type PremiseFact struct {
	Pred string
	Args []object.Value
}

// String renders the premise in fact notation.
func (p PremiseFact) String() string {
	parts := make([]string, len(p.Args))
	for i, v := range p.Args {
		parts[i] = v.String()
	}
	return p.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// Derivation explains one derived tuple: the rule that fired, the
// relational premises it consumed, and the side conditions (class,
// constraint and negated atoms) that held.
type Derivation struct {
	Rule       string
	Premises   []PremiseFact
	Conditions []string
}

func provKey(pred string, args []object.Value) string {
	return pred + "\x00" + RowKey(args)
}

// recordProvenance captures the instantiated body of a successful rule
// firing. All rule variables are bound at this point.
func (e *Engine) recordProvenance(r Rule, b bindings, pred string, tuple row) {
	key := provKey(pred, tuple)
	if _, ok := e.prov[key]; ok {
		return
	}
	d := &Derivation{Rule: r.String()}
	if r.Name != "" {
		d.Rule = r.Name
	}
	for _, l := range r.Body {
		switch a := l.(type) {
		case RelAtom:
			args := make([]object.Value, len(a.Args))
			for i, t := range a.Args {
				v, ok := termValue(t, b)
				if !ok {
					v = object.Null()
				}
				args[i] = v
			}
			d.Premises = append(d.Premises, PremiseFact{Pred: a.Pred, Args: args})
		default:
			d.Conditions = append(d.Conditions, substitute(l, b))
		}
	}
	e.prov[key] = d
}

// substitute renders a literal with bound variables replaced by their
// values.
func substitute(l Literal, b bindings) string {
	s := l.String()
	// Longest names first so X1 is not clobbered by X.
	names := make([]string, 0, len(b))
	for v := range b {
		names = append(names, v)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if len(names[j]) > len(names[i]) {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, v := range names {
		s = replaceIdent(s, v, b[v].String())
	}
	return s
}

// replaceIdent replaces whole-word occurrences of name in s.
func replaceIdent(s, name, with string) string {
	var out strings.Builder
	for i := 0; i < len(s); {
		j := strings.Index(s[i:], name)
		if j < 0 {
			out.WriteString(s[i:])
			break
		}
		j += i
		end := j + len(name)
		beforeOK := j == 0 || !isWordByte(s[j-1])
		afterOK := end == len(s) || !isWordByte(s[end])
		out.WriteString(s[i:j])
		if beforeOK && afterOK {
			out.WriteString(with)
		} else {
			out.WriteString(name)
		}
		i = end
	}
	return out.String()
}

func isWordByte(c byte) bool {
	return c == '_' || ('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// DerivationOf returns the recorded derivation of the tuple, or nil if
// the tuple is an extensional fact or unknown. Run must have completed
// with TraceProvenance enabled.
func (e *Engine) DerivationOf(pred string, args ...object.Value) *Derivation {
	if e.prov == nil {
		return nil
	}
	return e.prov[provKey(pred, args)]
}

// Why renders the derivation tree of the tuple. Extensional facts render
// as leaves; tuples never derived render as "unknown".
func (e *Engine) Why(pred string, args ...object.Value) (string, error) {
	if !e.trace {
		return "", fmt.Errorf("datalog: Why requires TraceProvenance()")
	}
	if err := e.Run(); err != nil {
		return "", err
	}
	var b strings.Builder
	e.why(&b, PremiseFact{Pred: pred, Args: args}, 0, map[string]bool{})
	return b.String(), nil
}

func (e *Engine) why(b *strings.Builder, f PremiseFact, depth int, onPath map[string]bool) {
	indent := strings.Repeat("  ", depth)
	key := provKey(f.Pred, f.Args)
	d := e.prov[key]
	switch {
	case onPath[key]:
		fmt.Fprintf(b, "%s%s  (see above)\n", indent, f)
		return
	case d == nil && e.hasTuple(f.Pred, row(f.Args)):
		fmt.Fprintf(b, "%s%s  [fact]\n", indent, f)
		return
	case d == nil:
		fmt.Fprintf(b, "%s%s  [unknown]\n", indent, f)
		return
	}
	fmt.Fprintf(b, "%s%s  [by %s]\n", indent, f, d.Rule)
	for _, c := range d.Conditions {
		fmt.Fprintf(b, "%s  | %s\n", indent, c)
	}
	onPath[key] = true
	for _, p := range d.Premises {
		e.why(b, p, depth+1, onPath)
	}
	delete(onPath, key)
}
