package engine

import (
	"fmt"

	"factorlog/internal/ast"
)

// patKind discriminates compiled argument patterns.
type patKind uint8

const (
	patConst patKind = iota
	patVar
	patCompound
)

// pattern is a compiled term: constants are interned up front, variables are
// slot numbers into the rule's binding frame, compounds keep their shape.
type pattern struct {
	kind    patKind
	val     Val    // patConst
	slot    int    // patVar
	functor string // patCompound
	args    []pattern
}

// literalSpec is one compiled body literal.
type literalSpec struct {
	pred      string
	arity     int
	args      []pattern
	boundCols []int // indexable columns fully bound before this literal (probe key)
	freeCols  []int // remaining columns (residually matched)
	idb       bool  // head predicate of some rule in the program
	// fullKey marks a literal whose every column is in boundCols: it probes
	// its relation's membership table, which needs no index.
	fullKey bool
}

// indexNeed is one hash index a rule's body requires: the probe of some
// body literal with at least one bound column and at least one free one (a
// literal bound on every column probes the membership table). The compiler
// declares these so the evaluator can build every index up front (once per
// stratum in the parallel path) instead of at a pass's first probe —
// removing the first-probe stall and making in-round probes read-only.
type indexNeed struct {
	pred string
	cols []int // sorted ascending (compiled in column order)
}

// compiledRule is an executable rule.
type compiledRule struct {
	src      ast.Rule
	idx      int // index into the program's rule list
	nslots   int
	headPred string
	headArgs []pattern
	body     []literalSpec
	idbOccs  []int // body positions whose predicate is IDB (delta positions)
	// indexNeeds lists the (relation, columns) indexes this rule's body
	// probes, one per literal with bound and free columns.
	indexNeeds []indexNeed
	// deltaLed[p], for every body position p ≥ 1, is the body reordered to
	// lead with the literal at p: the join a delta pass on p runs when its
	// delta window is the smaller scan (runner.passOrder). Its index needs
	// are not planned: the first pass that probes one of its positions
	// builds the index through ensureIndex (sequential passes only — a
	// parallel pass joins in source order), and a position bound on every
	// column probes the membership table like any other full-key literal.
	deltaLed []joinOrder
}

// joinOrder is one evaluation order of a rule body: the source literals,
// permuted, with their bound and free columns recomputed for the new
// order. Patterns and slots are the source literals', so the head and the
// binding frame are shared with the source order.
type joinOrder struct {
	body  []literalSpec
	order []int // order[k] is the source position of body[k]
}

// label renders the rule's source for trace records.
func (r *compiledRule) label() string { return r.src.String() }

// compiler lowers an ast.Program for a given store.
type compiler struct {
	store *Store
	idb   map[string]bool
	slots map[string]int
	n     int
}

// compileProgram lowers all rules. It validates safety (every head variable
// bound by the body) and consistent arities. With reorder set, body
// literals are greedily reordered so that literals with more bound columns
// run earlier (answers are unaffected; join work often is).
func compileProgram(p *ast.Program, store *Store, reorder bool) ([]*compiledRule, error) {
	if _, err := p.PredArities(); err != nil {
		return nil, err
	}
	c := &compiler{store: store, idb: p.IDBPreds()}
	rules := make([]*compiledRule, 0, len(p.Rules))
	for i, r := range p.Rules {
		if reorder {
			r = reorderBody(r)
		}
		cr, err := c.compileRule(r, i)
		if err != nil {
			return nil, fmt.Errorf("rule %d (%s): %w", i+1, r, err)
		}
		rules = append(rules, cr)
	}
	return rules, nil
}

// reorderBody greedily picks, at each step, the body literal with the most
// arguments fully bound by the literals already placed (constants count;
// ties break toward the smallest remaining free-variable count, then
// original order). Reordering is sound for positive programs.
func reorderBody(r ast.Rule) ast.Rule {
	n := len(r.Body)
	if n < 3 {
		return r
	}
	bound := map[string]bool{}
	used := make([]bool, n)
	order := make([]int, 0, n)
	termBound := func(t ast.Term) bool {
		for _, v := range t.Vars() {
			if !bound[v] {
				return false
			}
		}
		return true
	}
	for len(order) < n {
		best, bestBound, bestFree := -1, -1, 1<<30
		for i, a := range r.Body {
			if used[i] {
				continue
			}
			nb, nf := 0, 0
			for _, t := range a.Args {
				if termBound(t) {
					nb++
				}
			}
			for _, v := range a.Vars() {
				if !bound[v] {
					nf++
				}
			}
			if nb > bestBound || (nb == bestBound && nf < bestFree) {
				best, bestBound, bestFree = i, nb, nf
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range r.Body[best].Vars() {
			bound[v] = true
		}
	}
	body := make([]ast.Atom, n)
	for k, i := range order {
		body[k] = r.Body[i]
	}
	return ast.Rule{Head: r.Head, Body: body}
}

func (c *compiler) compileRule(r ast.Rule, idx int) (*compiledRule, error) {
	c.slots = map[string]int{}
	c.n = 0
	cr := &compiledRule{src: r, idx: idx, headPred: r.Head.Pred}

	// Compile body first so slot-bound analysis follows literal order.
	bound := make(map[int]bool)
	for bi, a := range r.Body {
		spec := literalSpec{pred: a.Pred, arity: len(a.Args), idb: c.idb[a.Pred]}
		for _, t := range a.Args {
			spec.args = append(spec.args, c.compileTerm(t))
		}
		spec.splitCols(bound)
		if spec.idb {
			cr.idbOccs = append(cr.idbOccs, bi)
		}
		if len(spec.boundCols) > 0 && !spec.fullKey {
			cr.indexNeeds = append(cr.indexNeeds, indexNeed{pred: spec.pred, cols: spec.boundCols})
		}
		cr.body = append(cr.body, spec)
	}

	for _, t := range r.Head.Args {
		pat := c.compileTerm(t)
		if !patternBound(pat, bound) {
			return nil, fmt.Errorf("unsafe rule: head variable(s) in %s not bound by body", t)
		}
		cr.headArgs = append(cr.headArgs, pat)
	}
	cr.nslots = c.n
	cr.deltaLed = deltaLedOrders(cr.body)
	return cr, nil
}

// splitCols splits the literal's columns by the slots bound before it runs
// — a fully bound column joins the probe key unless it lies at or past
// IndexableColumns, where it is matched residually like a free one — and
// then marks the literal's own slots bound.
func (l *literalSpec) splitCols(bound map[int]bool) {
	l.boundCols, l.freeCols = nil, nil
	for col, pat := range l.args {
		if col < IndexableColumns && patternBound(pat, bound) {
			l.boundCols = append(l.boundCols, col)
		} else {
			l.freeCols = append(l.freeCols, col)
		}
	}
	l.fullKey = len(l.boundCols) > 0 && len(l.freeCols) == 0
	for _, pat := range l.args {
		markBound(pat, bound)
	}
}

// deltaLedOrders compiles deltaLed: for each body position p ≥ 1, the
// literal at p first, then the rest in nextLiteral's greedy order.
func deltaLedOrders(body []literalSpec) []joinOrder {
	if len(body) < 2 {
		return nil
	}
	orders := make([]joinOrder, len(body))
	for p := 1; p < len(body); p++ {
		jo := &orders[p]
		used := make([]bool, len(body))
		bound := map[int]bool{}
		for next := p; next >= 0; next = nextLiteral(body, used, bound) {
			used[next] = true
			jo.order = append(jo.order, next)
			jo.body = append(jo.body, body[next])
			jo.body[len(jo.body)-1].splitCols(bound)
		}
	}
	return orders
}

// nextLiteral picks the unused literal to join next — the most arguments
// bound, then the fewest new variables, then EDB before IDB, then source
// order — or returns -1 when every literal is used.
func nextLiteral(body []literalSpec, used []bool, bound map[int]bool) int {
	best, bestBound, bestFree := -1, 0, 0
	for i := range body {
		if used[i] {
			continue
		}
		nb, nf := boundness(&body[i], bound)
		if best < 0 || nb > bestBound || nb == bestBound && (nf < bestFree ||
			nf == bestFree && body[best].idb && !body[i].idb) {
			best, bestBound, bestFree = i, nb, nf
		}
	}
	return best
}

// boundness counts the literal's arguments fully bound under bound and its
// distinct variables not bound yet.
func boundness(l *literalSpec, bound map[int]bool) (nBound, nFree int) {
	vars := map[int]bool{}
	for _, pat := range l.args {
		if patternBound(pat, bound) {
			nBound++
		}
		markBound(pat, vars)
	}
	for s := range vars {
		if !bound[s] {
			nFree++
		}
	}
	return nBound, nFree
}

func (c *compiler) compileTerm(t ast.Term) pattern {
	switch t.Kind {
	case ast.Var:
		slot, ok := c.slots[t.Functor]
		if !ok {
			slot = c.n
			c.n++
			c.slots[t.Functor] = slot
		}
		return pattern{kind: patVar, slot: slot}
	case ast.Const:
		return pattern{kind: patConst, val: c.store.Const(t.Functor)}
	default:
		args := make([]pattern, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.compileTerm(a)
		}
		return pattern{kind: patCompound, functor: t.Functor, args: args}
	}
}

func patternBound(p pattern, bound map[int]bool) bool {
	switch p.kind {
	case patConst:
		return true
	case patVar:
		return bound[p.slot]
	default:
		for _, a := range p.args {
			if !patternBound(a, bound) {
				return false
			}
		}
		return true
	}
}

func markBound(p pattern, bound map[int]bool) {
	switch p.kind {
	case patVar:
		bound[p.slot] = true
	case patCompound:
		for _, a := range p.args {
			markBound(a, bound)
		}
	}
}

// evalPattern builds the Val denoted by a fully bound pattern.
func evalPattern(p pattern, slots []Val, store *Store) Val {
	switch p.kind {
	case patConst:
		return p.val
	case patVar:
		return slots[p.slot]
	default:
		args := make([]Val, len(p.args))
		for i, a := range p.args {
			args[i] = evalPattern(a, slots, store)
		}
		return store.Compound(p.functor, args...)
	}
}

// matchPattern matches p against v, binding unbound slots (recorded on
// trail for backtracking) and checking bound ones.
func matchPattern(p pattern, v Val, slots []Val, trail *[]int, store *Store) bool {
	switch p.kind {
	case patConst:
		return p.val == v
	case patVar:
		if slots[p.slot] == NoVal {
			slots[p.slot] = v
			*trail = append(*trail, p.slot)
			return true
		}
		return slots[p.slot] == v
	default:
		if store.IsConst(v) || store.Functor(v) != p.functor {
			return false
		}
		args := store.Args(v)
		if len(args) != len(p.args) {
			return false
		}
		for i, a := range p.args {
			if !matchPattern(a, args[i], slots, trail, store) {
				return false
			}
		}
		return true
	}
}

func undoTrail(slots []Val, trail []int, mark int) []int {
	for _, s := range trail[mark:] {
		slots[s] = NoVal
	}
	return trail[:mark]
}
