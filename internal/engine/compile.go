package engine

import (
	"fmt"

	"factorlog/internal/ast"
	"factorlog/internal/depgraph"
)

// patKind discriminates compiled argument patterns.
type patKind uint8

const (
	patConst patKind = iota
	patVar
	patCompound
)

// pattern is a compiled term: constants are numbered in the program's
// constant table, variables are slot numbers into the rule's binding frame,
// compounds keep their shape.
type pattern struct {
	kind    patKind
	val     Val    // patConst: the constant's index in the constant table
	slot    int    // patVar
	functor string // patCompound
	args    []pattern
}

// literalSpec is one compiled body literal.
type literalSpec struct {
	pred      string
	id        int32 // pred's id in the compiled program
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
	pred int32 // predicate id
	cols []int // sorted ascending (compiled in column order)
}

// compiledRule is an executable rule.
type compiledRule struct {
	src      ast.Rule
	idx      int // index into the program's rule list
	nslots   int
	headPred string
	head     int32 // headPred's id
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

// CompiledProgram is a program lowered for evaluation once: its compiled
// rules with their delta-led orders and index needs, its predicates
// numbered densely with what evaluation needs to know of each, and, when
// compiled with one, its stratum schedule. It names no Store: constant
// patterns index a constant table, which every evaluation or build interns
// into its own store (internConsts), binding template parameters on the way.
// Nothing writes it after compile returns, so any number of builds over
// any number of images may share it.
type CompiledProgram struct {
	rules []*compiledRule
	// preds is indexed by predicate id (literalSpec.id, indexNeed.pred,
	// compiledRule.head): every predicate a rule names, numbered in first
	// occurrence order, rule by rule, head before body.
	preds []predInfo
	ids   map[string]int32
	// consts names the constant at each index of the constant table.
	consts []string
	// sched is the stratum schedule; nil unless compiled with one.
	sched *depgraph.Schedule
}

// predInfo is what a compiled program knows of one predicate.
type predInfo struct {
	name      string
	arity     int
	idb       bool // the head of some rule
	recursive bool // defined in a recursive stratum (known with a schedule)
	// readers lists, ascending, the rules with a body literal of the
	// predicate, and downstream their heads: what one rule application can
	// derive from it.
	readers    []int32
	downstream []int32
}

// Compile lowers p for materialization (CompiledProgram.Materialize): the
// rules in their written order, with the stratum schedule.
func Compile(p *ast.Program) (*CompiledProgram, error) { return compile(p, false, true) }

// compile lowers p, reordering rule bodies when reorder is set and
// analysing its strata when schedule is.
func compile(p *ast.Program, reorder, schedule bool) (*CompiledProgram, error) {
	consts := &constTable{index: map[string]Val{}}
	rules, err := compileRulesGuarded(p, consts, reorder)
	if err != nil {
		return nil, err
	}
	cp := &CompiledProgram{rules: rules, ids: map[string]int32{}, consts: consts.names}
	// The compiler numbered the predicates in the order of this walk.
	name := func(id int32, pred string, arity int) *predInfo {
		if int(id) == len(cp.preds) {
			cp.ids[pred] = id
			cp.preds = append(cp.preds, predInfo{name: pred, arity: arity})
		}
		return &cp.preds[id]
	}
	for _, r := range rules {
		name(r.head, r.headPred, len(r.headArgs)).idb = true
		for _, l := range r.body {
			info := name(l.id, l.pred, l.arity)
			if n := len(info.readers); n == 0 || info.readers[n-1] != int32(r.idx) {
				info.readers = append(info.readers, int32(r.idx))
				info.downstream = append(info.downstream, r.head)
			}
		}
	}
	if schedule {
		cp.sched = depgraph.Analyze(p)
		for _, st := range cp.sched.Strata {
			if st.Recursive {
				for _, pred := range st.Preds {
					cp.preds[cp.ids[pred]].recursive = true
				}
			}
		}
	}
	return cp, nil
}

// id returns pred's id, or -1 when no rule names it.
func (cp *CompiledProgram) id(pred string) int32 {
	if id, ok := cp.ids[pred]; ok {
		return id
	}
	return -1
}

// internConsts interns a constant table's names into store, in table
// order; a name bind maps is replaced by its binding (a template parameter
// by the query's constant).
func internConsts(names []string, store *Store, bind map[string]string) []Val {
	vals := make([]Val, len(names))
	for i, name := range names {
		if b, ok := bind[name]; ok {
			name = b
		}
		vals[i] = store.Const(name)
	}
	return vals
}

// constInterner numbers the constants a compile meets; a constant pattern
// holds the number.
type constInterner interface{ Const(name string) Val }

// constTable is a program's constant table: each distinct constant gets the
// next index.
type constTable struct {
	names []string
	index map[string]Val
}

func (t *constTable) Const(name string) Val {
	v, ok := t.index[name]
	if !ok {
		v = Val(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = v
	}
	return v
}

// compiler lowers an ast.Program's rules.
type compiler struct {
	consts constInterner
	idb    map[string]bool
	ids    map[string]int32 // predicate ids, numbered by predID
	slots  map[string]int
	n      int
}

// compileProgram lowers all rules. It validates safety (every head variable
// bound by the body) and consistent arities. With reorder set, body
// literals are greedily reordered so that literals with more bound columns
// run earlier (answers are unaffected; join work often is).
func compileProgram(p *ast.Program, consts constInterner, reorder bool) ([]*compiledRule, error) {
	if _, err := p.PredArities(); err != nil {
		return nil, err
	}
	c := &compiler{consts: consts, idb: p.IDBPreds(), ids: map[string]int32{}}
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

// predID returns pred's id, numbering a predicate seen for the first time.
func (c *compiler) predID(pred string) int32 {
	id, ok := c.ids[pred]
	if !ok {
		id = int32(len(c.ids))
		c.ids[pred] = id
	}
	return id
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
	cr := &compiledRule{src: r, idx: idx, headPred: r.Head.Pred, head: c.predID(r.Head.Pred)}

	// Compile body first so slot-bound analysis follows literal order.
	bound := make(map[int]bool)
	for bi, a := range r.Body {
		spec := literalSpec{pred: a.Pred, id: c.predID(a.Pred), arity: len(a.Args), idb: c.idb[a.Pred]}
		for _, t := range a.Args {
			spec.args = append(spec.args, c.compileTerm(t))
		}
		spec.splitCols(bound)
		if spec.idb {
			cr.idbOccs = append(cr.idbOccs, bi)
		}
		if len(spec.boundCols) > 0 && !spec.fullKey {
			cr.indexNeeds = append(cr.indexNeeds, indexNeed{pred: spec.id, cols: spec.boundCols})
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
		return pattern{kind: patConst, val: c.consts.Const(t.Functor)}
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

// evalPattern builds the Val denoted by a fully bound pattern; consts is
// the constant table interned in store.
func evalPattern(p pattern, slots, consts []Val, store *Store) Val {
	switch p.kind {
	case patConst:
		return consts[p.val]
	case patVar:
		return slots[p.slot]
	default:
		args := make([]Val, len(p.args))
		for i, a := range p.args {
			args[i] = evalPattern(a, slots, consts, store)
		}
		return store.Compound(p.functor, args...)
	}
}

// matchPattern matches p against v, binding unbound slots (recorded on
// trail for backtracking) and checking bound ones.
func matchPattern(p pattern, v Val, slots []Val, trail *[]int, consts []Val, store *Store) bool {
	switch p.kind {
	case patConst:
		return consts[p.val] == v
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
			if !matchPattern(a, args[i], slots, trail, consts, store) {
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
