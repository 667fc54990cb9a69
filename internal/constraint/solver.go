package constraint

import "sort"

// This file implements an exact satisfiability and entailment procedure
// for conjunctions of dense-order atoms over arbitrarily many variables
// (the "point algebra" fragment used in rule bodies).
//
// Algorithm (classical, van Beek style): build a graph whose nodes are
// variables and the distinct constants of the conjunction.
//
//   - x = y   adds edges x ≤ y and y ≤ x;
//   - x ≤ y   adds edge x ≤ y;
//   - x < y   adds edge x ≤ y marked strict;
//   - x ≠ y   is recorded as a disequality pair;
//   - consecutive distinct constants c1 < c2 add a strict edge c1 → c2.
//
// The conjunction is satisfiable over a dense linear order iff, after
// collapsing strongly connected components of the ≤-graph (whose members
// are all forced equal):
//
//   1. no strict edge joins two nodes of the same component;
//   2. no disequality pair lies within one component;
//   3. no component contains two distinct constants.
//
// Density of the order guarantees that any component DAG satisfying these
// conditions is realizable (assign strictly increasing reals along a
// topological order, squeezing between pinned constants — always possible
// in a dense order). The procedure is O((n+m) α) and complete.

type pointGraph struct {
	nodes  map[string]int // variable name or constant key -> node id
	names  []string
	adj    [][]edge
	neq    [][2]int
	consts map[int]float64 // node id -> pinned constant value
}

type edge struct {
	to     int
	strict bool
}

func newPointGraph() *pointGraph {
	return &pointGraph{nodes: make(map[string]int), consts: make(map[int]float64)}
}

func (g *pointGraph) node(key string) int {
	if id, ok := g.nodes[key]; ok {
		return id
	}
	id := len(g.names)
	g.nodes[key] = id
	g.names = append(g.names, key)
	g.adj = append(g.adj, nil)
	return id
}

func (g *pointGraph) varNode(name string) int { return g.node("v:" + name) }

func (g *pointGraph) constNode(v float64) int {
	key := "c:" + formatConstKey(v)
	id := g.node(key)
	g.consts[id] = v
	return id
}

func formatConstKey(v float64) string {
	// Distinct float64 values get distinct keys; normalize -0.
	if v == 0 {
		v = 0
	}
	return Term{Const: v}.String()
}

func (g *pointGraph) addLe(a, b int, strict bool) {
	g.adj[a] = append(g.adj[a], edge{to: b, strict: strict})
}

func (g *pointGraph) addAtom(a Atom) {
	l := g.termNode(a.Left)
	r := g.termNode(a.Right)
	switch a.Op {
	case Lt:
		g.addLe(l, r, true)
	case Le:
		g.addLe(l, r, false)
	case Eq:
		g.addLe(l, r, false)
		g.addLe(r, l, false)
	case Ne:
		g.neq = append(g.neq, [2]int{l, r})
	case Ge:
		g.addLe(r, l, false)
	case Gt:
		g.addLe(r, l, true)
	}
}

func (g *pointGraph) termNode(t Term) int {
	if t.IsVar() {
		return g.varNode(t.Var)
	}
	return g.constNode(t.Const)
}

// linkConstants adds the strict chain between consecutive distinct
// constants so that the numeric order participates in the graph.
func (g *pointGraph) linkConstants() {
	ids := make([]int, 0, len(g.consts))
	for id := range g.consts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return g.consts[ids[i]] < g.consts[ids[j]] })
	for i := 1; i < len(ids); i++ {
		g.addLe(ids[i-1], ids[i], true)
	}
}

// scc computes strongly connected components with Tarjan's algorithm
// (iterative) and returns the component id of each node.
func (g *pointGraph) scc() []int {
	n := len(g.adj)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var next, ncomp int

	type frame struct {
		v, ei int
	}
	var callStack []frame
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{v: start})
		index[start], low[start] = next, next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.ei < len(g.adj[v]) {
				w := g.adj[v][f.ei].to
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comp
}

// conjSatisfiable reports whether the conjunction has a solution over a
// dense linear order: build the point graph, collapse strongly connected
// components, check the three realizability conditions. It spends one
// budget step per atom plus one for the closure pass. Every caller —
// Formula.Satisfiable, Entails' negation search, Simplify — funnels
// through here.
func conjSatisfiable(c Conj, b *Budget) (bool, error) {
	if err := b.Spend(int64(len(c)) + 1); err != nil {
		return false, err
	}
	g := newPointGraph()
	for _, a := range c {
		// Ground atoms are decided immediately.
		if !a.Left.IsVar() && !a.Right.IsVar() {
			if !a.Op.Holds(a.Left.Const, a.Right.Const) {
				return false, nil
			}
			continue
		}
		// Trivially reflexive atoms.
		if a.Left.IsVar() && a.Right.IsVar() && a.Left.Var == a.Right.Var {
			if !a.Op.Holds(0, 0) {
				return false, nil
			}
			continue
		}
		g.addAtom(a)
	}
	g.linkConstants()
	comp := g.scc()

	// Condition 1: strict edge within a component.
	for v, edges := range g.adj {
		for _, e := range edges {
			if e.strict && comp[v] == comp[e.to] {
				return false, nil
			}
		}
	}
	// Condition 2: disequality within a component.
	for _, p := range g.neq {
		if comp[p[0]] == comp[p[1]] {
			return false, nil
		}
	}
	// Condition 3: two distinct constants in one component.
	pinned := make(map[int]float64)
	for id, v := range g.consts {
		if prev, ok := pinned[comp[id]]; ok && prev != v {
			return false, nil
		}
		pinned[comp[id]] = v
	}
	return true, nil
}

// negationSatisfiable reports whether acc ∧ ¬(g[i] ∨ … ∨ g[n-1]) is
// satisfiable. ¬g is a conjunction of disjunctions of negated atoms; the
// search picks one negated atom per disjunct, pruning unsatisfiable
// partial choices. It spends one budget step per visited branch of the
// (potentially exponential) choice tree, so a budgeted caller can stop a
// hostile entailment check.
func negationSatisfiable(acc Conj, g Formula, i int, b *Budget) (bool, error) {
	if err := b.Spend(1); err != nil {
		return false, err
	}
	sat, err := conjSatisfiable(acc, b)
	if err != nil {
		return false, err
	}
	if !sat {
		return false, nil
	}
	if i == len(g) {
		return true, nil
	}
	disjunct := g[i]
	if len(disjunct) == 0 {
		// ¬(true) = false: this branch kills every choice.
		return false, nil
	}
	for _, a := range disjunct {
		neg := Atom{Left: a.Left, Op: a.Op.Negate(), Right: a.Right}
		ok, err := negationSatisfiable(append(acc[:len(acc):len(acc)], neg), g, i+1, b)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
