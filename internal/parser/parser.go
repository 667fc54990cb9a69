package parser

import (
	"fmt"
	"math"
	"strconv"

	"videodb/internal/constraint"
	"videodb/internal/datalog"
	"videodb/internal/interval"
	"videodb/internal/object"
	"videodb/internal/store"
)

// Script is the result of parsing a VideoQL source: the database content
// (objects and facts), the program rules, and the queries, in source
// order.
type Script struct {
	Objects []*object.Object
	Facts   []store.Fact
	Rules   []datalog.Rule
	Queries []Query
}

// Query is a parsed query. Single-atom queries over a predicate are
// answered directly; conjunctive queries synthesize a helper rule that
// must be added to the program (Rule non-nil).
type Query struct {
	Atom datalog.RelAtom
	Rule *datalog.Rule
	Text string
}

// Program returns the script's rules plus any query helper rules, as a
// validated-by-construction program (validation still happens at engine
// construction).
func (s *Script) Program() datalog.Program {
	rules := append([]datalog.Rule(nil), s.Rules...)
	for _, q := range s.Queries {
		if q.Rule != nil {
			rules = append(rules, *q.Rule)
		}
	}
	return datalog.NewProgram(rules...)
}

// Apply loads the script's objects and facts into the store.
func (s *Script) Apply(st *store.Store) error {
	for _, o := range s.Objects {
		if err := st.Put(o); err != nil {
			return err
		}
	}
	for _, f := range s.Facts {
		st.AddFact(f)
	}
	return nil
}

// Parse parses a full VideoQL script.
func Parse(src string) (*Script, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	script := &Script{}
	for p.cur().kind != tokEOF {
		if err := p.statement(script); err != nil {
			return nil, err
		}
	}
	return script, nil
}

// ParseRule parses a single rule (the trailing period is optional).
func ParseRule(src string) (datalog.Rule, error) {
	toks, err := lex(src)
	if err != nil {
		return datalog.Rule{}, err
	}
	p := &parser{toks: toks}
	r, err := p.ruleOrFact()
	if err != nil {
		return datalog.Rule{}, err
	}
	if p.cur().kind == tokDot {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return datalog.Rule{}, p.errf("unexpected %s after rule", p.cur())
	}
	if r.fact != nil {
		return datalog.Rule{}, p.errf("expected a rule, got a ground fact")
	}
	return *r.rule, nil
}

// ParseQuery parses a single query, with or without the leading "?-" (the
// trailing period is optional).
func ParseQuery(src string) (Query, error) {
	toks, err := lex(src)
	if err != nil {
		return Query{}, err
	}
	p := &parser{toks: toks}
	if p.cur().kind == tokQuery {
		p.next()
	}
	q, err := p.query(0, src)
	if err != nil {
		return Query{}, err
	}
	if p.cur().kind == tokDot {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return Query{}, p.errf("unexpected %s after query", p.cur())
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }
func (p *parser) peek2() token {
	return p.toks[min(p.pos+2, len(p.toks)-1)]
}
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) errf(format string, args ...interface{}) error {
	return p.errAt(p.cur(), format, args...)
}

// errAt reports an error positioned at an explicit token — used when the
// offending construct started earlier than the current token (e.g. rule
// validation failures point at the rule, not the trailing period).
func (p *parser) errAt(t token, format string, args ...interface{}) error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

// tokPos converts a token's location to an AST position.
func tokPos(t token) datalog.Pos { return datalog.Pos{Line: t.line, Col: t.col} }

// litAt stamps a literal with its source position.
func litAt(l datalog.Literal, t token) datalog.Literal {
	pos := tokPos(t)
	switch a := l.(type) {
	case datalog.RelAtom:
		a.Pos = pos
		return a
	case datalog.ClassAtom:
		a.Pos = pos
		return a
	case datalog.CmpAtom:
		a.Pos = pos
		return a
	case datalog.MemberAtom:
		a.Pos = pos
		return a
	case datalog.EntailAtom:
		a.Pos = pos
		return a
	case datalog.TemporalAtom:
		a.Pos = pos
		return a
	case datalog.NotAtom:
		a.Pos = pos
		return a
	}
	return l
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errf("expected %s, got %s", tokenNames[kind], p.cur())
	}
	return p.next(), nil
}

// isVariable implements the paper's convention: identifiers starting with
// an upper-case letter are variables.
func isVariable(name string) bool {
	if name == "" {
		return false
	}
	r := rune(name[0])
	return r >= 'A' && r <= 'Z'
}

func (p *parser) statement(script *Script) error {
	t := p.cur()
	switch {
	case t.kind == tokQuery:
		p.next()
		q, err := p.query(len(script.Queries), "")
		if err != nil {
			return err
		}
		script.Queries = append(script.Queries, q)
		_, err = p.expect(tokDot)
		return err

	case t.kind == tokIdent && (t.text == "interval" || t.text == "object") &&
		p.peek().kind == tokIdent && p.peek2().kind == tokLBrace:
		obj, err := p.objectDef()
		if err != nil {
			return err
		}
		script.Objects = append(script.Objects, obj)
		_, err = p.expect(tokDot)
		return err

	case t.kind == tokIdent:
		rf, err := p.ruleOrFact()
		if err != nil {
			return err
		}
		if rf.fact != nil {
			script.Facts = append(script.Facts, *rf.fact)
		} else {
			script.Rules = append(script.Rules, *rf.rule)
		}
		_, err = p.expect(tokDot)
		return err

	default:
		return p.errf("expected a statement, got %s", t)
	}
}

// --- Object definitions -------------------------------------------------------

func (p *parser) objectDef() (*object.Object, error) {
	kindTok := p.next() // "interval" or "object"
	nameTok, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if isVariable(nameTok.text) {
		return nil, p.errf("object identity %q must not start with an upper-case letter", nameTok.text)
	}
	kind := object.Entity
	if kindTok.text == "interval" {
		kind = object.GenInterval
	}
	obj := object.New(object.OID(nameTok.text), kind)
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	for p.cur().kind != tokRBrace {
		attrTok, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		obj.Set(attrTok.text, v)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return obj, nil
}

// value parses a constant value: number, string, object reference, set
// literal, interval literal, or parenthesized temporal constraint.
func (p *parser) value() (object.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return object.Null(), p.errf("bad number %q", t.text)
		}
		return object.Num(f), nil
	case tokString:
		p.next()
		return object.Str(t.text), nil
	case tokIdent:
		if isVariable(t.text) {
			return object.Null(), p.errf("variable %s not allowed in a constant value", t.text)
		}
		p.next()
		return object.Ref(object.OID(t.text)), nil
	case tokLBrace:
		p.next()
		var elems []object.Value
		for p.cur().kind != tokRBrace {
			v, err := p.value()
			if err != nil {
				return object.Null(), err
			}
			elems = append(elems, v)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return object.Null(), err
		}
		return object.Set(elems...), nil
	case tokEmpty:
		p.next() // how an unsatisfiable temporal constraint prints
		return object.Temporal(interval.Empty()), nil
	case tokLBracket:
		g, err := p.temporalLiteral()
		if err != nil {
			return object.Null(), err
		}
		return object.Temporal(g), nil
	case tokLParen:
		// "(lo, hi)" is an open time span; "(t > 5 and …)" — or
		// "(5 < t …)" — is a constraint. The comma disambiguates.
		if (p.peek().kind == tokNumber || p.peek().kind == tokNegInf) && p.peek2().kind == tokComma {
			g, err := p.temporalLiteral()
			if err != nil {
				return object.Null(), err
			}
			return object.Temporal(g), nil
		}
		g, err := p.temporalConstraint()
		if err != nil {
			return object.Null(), err
		}
		return object.Temporal(g), nil
	default:
		return object.Null(), p.errf("expected a value, got %s", t)
	}
}

// temporalLiteral parses a union of spans: "[0,30]", "(0,30) + [40,80]".
func (p *parser) temporalLiteral() (interval.Generalized, error) {
	var spans []interval.Span
	for {
		s, err := p.span()
		if err != nil {
			return interval.Generalized{}, err
		}
		spans = append(spans, s)
		if p.cur().kind == tokPlus {
			p.next()
			continue
		}
		return interval.New(spans...), nil
	}
}

func (p *parser) span() (interval.Span, error) {
	var s interval.Span
	switch p.cur().kind {
	case tokLBracket:
		p.next()
	case tokLParen:
		s.LoOpen = true
		p.next()
	default:
		return s, p.errf("expected '[' or '(' starting a time interval, got %s", p.cur())
	}
	lo, err := p.numberValue()
	if err != nil {
		return s, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return s, err
	}
	hi, err := p.numberValue()
	if err != nil {
		return s, err
	}
	switch p.cur().kind {
	case tokRBracket:
		p.next()
	case tokRParen:
		s.HiOpen = true
		p.next()
	default:
		return s, p.errf("expected ']' or ')' ending a time interval, got %s", p.cur())
	}
	s.Lo, s.Hi = lo, hi
	if s.IsEmpty() {
		return s, p.errf("empty time interval [%g,%g]", lo, hi)
	}
	return s, nil
}

func (p *parser) numberValue() (float64, error) {
	// Unbounded span ends, as intervals print them: "(-inf,+inf)".
	switch {
	case p.cur().kind == tokNegInf:
		p.next()
		return math.Inf(-1), nil
	case p.cur().kind == tokPlus && p.peek().kind == tokIdent && p.peek().text == "inf":
		p.next()
		p.next()
		return math.Inf(1), nil
	}
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	return f, nil
}

// temporalConstraint parses "(t > 0 and t < 30 or t > 50)" — a dense
// linear order constraint over a single time variable — and returns its
// solution set.
func (p *parser) temporalConstraint() (interval.Generalized, error) {
	if _, err := p.expect(tokLParen); err != nil {
		return interval.Generalized{}, err
	}
	f, v, err := p.orExpr("")
	if err != nil {
		return interval.Generalized{}, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return interval.Generalized{}, err
	}
	if v == "" {
		v = "t"
	}
	return f.ToInterval(v)
}

func (p *parser) orExpr(v string) (constraint.Formula, string, error) {
	f, v, err := p.andExpr(v)
	if err != nil {
		return nil, v, err
	}
	for p.cur().kind == tokIdent && p.cur().text == "or" {
		p.next()
		g, v2, err := p.andExpr(v)
		if err != nil {
			return nil, v2, err
		}
		v = v2
		f = f.Or(g)
	}
	return f, v, nil
}

func (p *parser) andExpr(v string) (constraint.Formula, string, error) {
	f, v, err := p.constraintPrim(v)
	if err != nil {
		return nil, v, err
	}
	for p.cur().kind == tokIdent && p.cur().text == "and" {
		p.next()
		g, v2, err := p.constraintPrim(v)
		if err != nil {
			return nil, v2, err
		}
		v = v2
		f = f.And(g)
	}
	return f, v, nil
}

func (p *parser) constraintPrim(v string) (constraint.Formula, string, error) {
	if p.cur().kind == tokLParen {
		p.next()
		f, v, err := p.orExpr(v)
		if err != nil {
			return nil, v, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, v, err
		}
		return f, v, nil
	}
	left, v, err := p.constraintTerm(v)
	if err != nil {
		return nil, v, err
	}
	opTok, err := p.expect(tokOp)
	if err != nil {
		return nil, v, err
	}
	op, err := constraint.ParseOp(opTok.text)
	if err != nil {
		return nil, v, p.errf("%v", err)
	}
	right, v, err := p.constraintTerm(v)
	if err != nil {
		return nil, v, err
	}
	return constraint.FromAtom(constraint.NewAtom(left, op, right)), v, nil
}

func (p *parser) constraintTerm(v string) (constraint.Term, string, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return constraint.Term{}, v, p.errf("bad number %q", t.text)
		}
		return constraint.C(f), v, nil
	case tokIdent:
		p.next()
		if v == "" {
			v = t.text
		} else if t.text != v {
			return constraint.Term{}, v, p.errf(
				"temporal constraint must use a single time variable (%q and %q)", v, t.text)
		}
		return constraint.V(t.text), v, nil
	default:
		return constraint.Term{}, v, p.errf("expected a time variable or number, got %s", t)
	}
}

// --- Rules, facts and queries --------------------------------------------------

type ruleOrFact struct {
	rule *datalog.Rule
	fact *store.Fact
}

func (p *parser) ruleOrFact() (ruleOrFact, error) {
	start := p.cur()
	var label string
	if p.cur().kind == tokIdent && p.peek().kind == tokColon && p.peek2().kind == tokIdent {
		label = p.next().text
		p.next() // colon
	}
	head, err := p.headAtom()
	if err != nil {
		return ruleOrFact{}, err
	}
	if p.cur().kind != tokTurnstile {
		// A ground head is a fact.
		fact, err := atomToFact(head)
		if err != nil {
			return ruleOrFact{}, p.errAt(start, "%v", err)
		}
		if label != "" {
			return ruleOrFact{}, p.errAt(start, "facts cannot carry a rule label")
		}
		return ruleOrFact{fact: &fact}, nil
	}
	p.next() // :-
	body, err := p.body()
	if err != nil {
		return ruleOrFact{}, err
	}
	r := datalog.NewRule(head, body...).Named(label)
	r.Pos = tokPos(start)
	if err := r.Validate(); err != nil {
		return ruleOrFact{}, p.errAt(start, "%v", err)
	}
	return ruleOrFact{rule: &r}, nil
}

func atomToFact(a datalog.RelAtom) (store.Fact, error) {
	args := make([]object.Value, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() || t.IsConcat() {
			return store.Fact{}, fmt.Errorf("fact %s must be ground", a)
		}
		args[i] = t.Value()
	}
	return store.NewFact(a.Pred, args...), nil
}

func (p *parser) query(n int, text string) (Query, error) {
	start := p.cur()
	body, err := p.body()
	if err != nil {
		return Query{}, err
	}
	// A single relational atom queries the predicate directly.
	if len(body) == 1 {
		if rel, ok := body[0].(datalog.RelAtom); ok && rel.Pred != "Interval" && rel.Pred != "Object" {
			return Query{Atom: rel, Text: text}, nil
		}
	}
	// Otherwise synthesize q_n(vars) :- body.
	vars := map[string]bool{}
	var order []string
	for _, l := range body {
		for _, v := range datalog.VarsOf(l) {
			if !vars[v] {
				vars[v] = true
				order = append(order, v)
			}
		}
	}
	args := make([]datalog.Term, len(order))
	for i, v := range order {
		args[i] = datalog.Var(v)
	}
	head := datalog.Rel(fmt.Sprintf("query_%d", n), args...)
	head.Pos = tokPos(start)
	rule := datalog.NewRule(head, body...)
	rule.Pos = tokPos(start)
	if err := rule.Validate(); err != nil {
		return Query{}, p.errAt(start, "%v", err)
	}
	return Query{Atom: head, Rule: &rule, Text: text}, nil
}

func (p *parser) body() ([]datalog.Literal, error) {
	var body []datalog.Literal
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		body = append(body, lit)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		return body, nil
	}
}

// headAtom parses "pred(term, …)" where terms may be concatenations.
func (p *parser) headAtom() (datalog.RelAtom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return datalog.RelAtom{}, err
	}
	if isVariable(name.text) {
		return datalog.RelAtom{}, p.errf("predicate %q must not start with an upper-case letter", name.text)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return datalog.RelAtom{}, err
	}
	var args []datalog.Term
	for p.cur().kind != tokRParen {
		t, err := p.concatTerm()
		if err != nil {
			return datalog.RelAtom{}, err
		}
		args = append(args, t)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return datalog.RelAtom{}, err
	}
	a := datalog.Rel(name.text, args...)
	a.Pos = tokPos(name)
	return a, nil
}

// concatTerm parses "term (+ term)*" as a left-nested concatenation.
func (p *parser) concatTerm() (datalog.Term, error) {
	t, err := p.term()
	if err != nil {
		return datalog.Term{}, err
	}
	for p.cur().kind == tokPlus {
		p.next()
		r, err := p.term()
		if err != nil {
			return datalog.Term{}, err
		}
		t = datalog.Concat(t, r)
	}
	return t, nil
}

// term parses a variable or constant value.
func (p *parser) term() (datalog.Term, error) {
	t := p.cur()
	if t.kind == tokIdent && isVariable(t.text) {
		p.next()
		return datalog.Var(t.text), nil
	}
	v, err := p.value()
	if err != nil {
		return datalog.Term{}, err
	}
	return datalog.Const(v), nil
}

// operand parses "term" or "term.attr".
func (p *parser) operand() (datalog.Operand, error) {
	t, err := p.term()
	if err != nil {
		return datalog.Operand{}, err
	}
	if p.cur().kind == tokAttrDot {
		p.next()
		attr, err := p.expect(tokIdent)
		if err != nil {
			return datalog.Operand{}, err
		}
		return datalog.AttrOp(t, attr.text), nil
	}
	return datalog.TermOp(t), nil
}

// literal parses one body literal and stamps it with the position of its
// first token.
func (p *parser) literal() (datalog.Literal, error) {
	start := p.cur()
	l, err := p.literalInner()
	if err != nil {
		return nil, err
	}
	return litAt(l, start), nil
}

func (p *parser) literalInner() (datalog.Literal, error) {
	t := p.cur()

	// Negated relational atom: "not p(t, …)". Only relational atoms can
	// be negated (the stratified-negation extension).
	if t.kind == tokIdent && t.text == "not" &&
		p.peek().kind == tokIdent && p.peek2().kind == tokLParen {
		p.next() // not
		inner, err := p.literal()
		if err != nil {
			return nil, err
		}
		rel, ok := inner.(datalog.RelAtom)
		if !ok {
			return nil, p.errf("only relational atoms can be negated, got %s", inner)
		}
		return datalog.Not(rel), nil
	}

	// Class atoms and relational atoms: IDENT "(" …
	if t.kind == tokIdent && p.peek().kind == tokLParen && !isVariable(t.text) {
		name := p.next().text
		p.next() // (
		var args []datalog.Term
		for p.cur().kind != tokRParen {
			a, err := p.term()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return datalog.Rel(name, args...), nil
	}

	// Built-in class atoms are spelled capitalized: Interval(G), Object(O).
	if t.kind == tokIdent && (t.text == "Interval" || t.text == "Object") && p.peek().kind == tokLParen {
		name := p.next().text
		p.next() // (
		arg, err := p.term()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if name == "Interval" {
			return datalog.Interval(arg), nil
		}
		return datalog.ObjectAtom(arg), nil
	}

	// Set-inclusion constraint: { terms } subset operand.
	if t.kind == tokLBrace {
		p.next()
		var elems []datalog.Operand
		for p.cur().kind != tokRBrace {
			e, err := p.operand()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tokRBrace); err != nil {
			return nil, err
		}
		kw, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if kw.text != "subset" && kw.text != "in" {
			return nil, p.errf("expected 'subset' after a set of terms, got %q", kw.text)
		}
		set, err := p.operand()
		if err != nil {
			return nil, err
		}
		return datalog.SubsetAtom(set, elems...), nil
	}

	// Remaining forms start with an operand.
	left, err := p.operand()
	if err != nil {
		return nil, err
	}
	switch {
	case p.cur().kind == tokOp:
		opTok := p.next()
		op, err := constraint.ParseOp(opTok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		right, err := p.operand()
		if err != nil {
			return nil, err
		}
		return datalog.Cmp(left, op, right), nil

	case p.cur().kind == tokImplies:
		p.next()
		right, err := p.entailRight()
		if err != nil {
			return nil, err
		}
		return datalog.Entails(left, right), nil

	case p.cur().kind == tokIdent && p.cur().text == "in":
		p.next()
		set, err := p.operand()
		if err != nil {
			return nil, err
		}
		return datalog.Member(left, set), nil

	case p.cur().kind == tokIdent && isTemporalKeyword(p.cur().text):
		rel, _ := datalog.ParseTemporalRel(p.next().text)
		right, err := p.entailRight()
		if err != nil {
			return nil, err
		}
		return datalog.Temporal(left, rel, right), nil

	default:
		return nil, p.errf("expected a comparison, '=>', or 'in' after %s, got %s", left, p.cur())
	}
}

// isTemporalKeyword recognizes the Allen-style relation keywords of the
// temporal-atom extension.
func isTemporalKeyword(s string) bool {
	_, ok := datalog.ParseTemporalRel(s)
	return ok
}

// entailRight parses the right side of "=>": an attribute operand, a
// temporal literal, or a parenthesized constraint.
func (p *parser) entailRight() (datalog.Operand, error) {
	t := p.cur()
	switch {
	case t.kind == tokLBracket,
		t.kind == tokLParen && p.peek().kind == tokNumber && p.peek2().kind == tokComma:
		g, err := p.temporalLiteral()
		if err != nil {
			return datalog.Operand{}, err
		}
		return datalog.TermOp(datalog.Const(object.Temporal(g))), nil
	case t.kind == tokLParen:
		g, err := p.temporalConstraint()
		if err != nil {
			return datalog.Operand{}, err
		}
		return datalog.TermOp(datalog.Const(object.Temporal(g))), nil
	default:
		return p.operand()
	}
}
