package pipeline

import (
	"sort"
	"strconv"
	"strings"

	"factorlog/internal/ast"
)

// This file is the template half of the plan cache. Everything the rewrite
// chain does — adornment (§4.1), the class tests (Defs. 4.6-4.8), factoring
// (Thms 4.1-4.3), the §5 clean-up — reads only the query's syntax; a bound
// constant enters the rewritten program only through the magic seed m_p(c).
// So the cache compiles each query *shape* once — the query with each bound
// constant replaced by a parameter — on one template Pipeline that every
// strategy of the shape shares, and serves a concrete query from the
// template bound to its constants: the same programs, answer atom and
// EXPLAIN text, with each parameter replaced by its constant.

// paramPrefix spells a parameter: the constant $0 stands for the first
// distinct bound constant of a query, $1 for the second, and so on. A
// template query's variables are spelled $V0, $V1, ... in first-occurrence
// order — names no rule variable has, so binding them to a query's own
// variable names renames nothing else. (The Magic rewrite copies the query
// into its query(...) rule, so the variables reach the programs too.)
const (
	paramPrefix = "$"
	varPrefix   = paramPrefix + "V"
)

// shape is a query's compile-once identity.
type shape struct {
	// canon is the shape's cache identity, the canonical form of query.
	canon string
	// query is the template query: the query with each bound constant
	// replaced by its parameter and its variables spelled $V0, $V1, ...
	query ast.Atom
	// params[i] is the constant parameter i stands for.
	params []ast.Term
}

// shapeOf parameterises query when that cannot change a rewrite: every bound
// argument is an atomic constant, and none of those constants occurs in the
// program's rules or constraints or in the query's other arguments (Prop. 5.3
// and the uniform-equivalence test compare constants, so a collision could
// make the rewrite at c differ from the rewrite at a parameter). Parameters
// are numbered by first occurrence of each distinct constant, so t(5,5) and
// t(5,6) are different shapes. Any other query is its own shape, with no
// parameters.
func shapeOf(query ast.Atom, prog *ast.Program, constraints []ast.Rule) shape {
	vars := map[string]string{}
	for i, v := range query.Vars() {
		vars[v] = varPrefix + strconv.Itoa(i)
	}
	tq := ast.RenameRuleVars(ast.Rule{Head: query}, vars).Head
	exact := func() shape { return shape{canon: query.CanonicalKey(), query: tq} }
	args := make([]ast.Term, len(query.Args))
	var params []ast.Term
	for i, t := range tq.Args {
		if !t.Ground() {
			args[i] = t
			continue
		}
		if !t.IsConst() || strings.HasPrefix(t.Functor, paramPrefix) {
			return exact()
		}
		n := 0
		for n < len(params) && params[n].Functor != t.Functor {
			n++
		}
		if n == len(params) {
			params = append(params, t)
		}
		args[i] = ast.C(paramPrefix + strconv.Itoa(n))
	}
	if len(params) == 0 {
		return exact()
	}
	for _, t := range query.Args {
		if !t.Ground() && clashes(t, params) {
			return exact()
		}
	}
	for _, rules := range [][]ast.Rule{prog.Rules, constraints} {
		for _, r := range rules {
			if atomClashes(r.Head, params) {
				return exact()
			}
			for _, a := range r.Body {
				if atomClashes(a, params) {
					return exact()
				}
			}
		}
	}
	sh := shape{query: ast.Atom{Pred: query.Pred, Args: args}, params: params}
	sh.canon = sh.query.CanonicalKey()
	return sh
}

func atomClashes(a ast.Atom, params []ast.Term) bool {
	for _, t := range a.Args {
		if clashes(t, params) {
			return true
		}
	}
	return false
}

// clashes reports whether t mentions one of params, or a constant spelled
// like a parameter.
func clashes(t ast.Term, params []ast.Term) bool {
	switch t.Kind {
	case ast.Const:
		if strings.HasPrefix(t.Functor, paramPrefix) {
			return true
		}
		for _, p := range params {
			if p.Functor == t.Functor {
				return true
			}
		}
	case ast.Compound:
		for _, a := range t.Args {
			if clashes(a, params) {
				return true
			}
		}
	}
	return false
}

// binding rewrites a template's output for one concrete query: parameters
// become that query's constants, the template query's variables its
// variables.
type binding struct {
	consts map[string]ast.Term
	vars   map[string]string
	text   *strings.Replacer // the same rewrite of rendered text
	// params maps each parameter's name to its constant's, the binding a
	// materialization build interns the template's compiled program with.
	params map[string]string
}

// bind returns the pipeline that serves query from this template, params[i]
// being the constant parameter i stands for. It compiles nothing of its own:
// each stage it is asked for is the template's, rewritten through the
// binding the first time it is read and memoized after that. A query that
// is the template's own query is served by the template itself.
func (pl *Pipeline) bind(query ast.Atom, params []ast.Term) *Pipeline {
	b := &binding{consts: map[string]ast.Term{}, vars: map[string]string{}, params: map[string]string{}}
	var names []string
	for i, c := range params {
		name := paramPrefix + strconv.Itoa(i)
		b.consts[name], b.params[name] = c, c.Functor
		names = append(names, name)
	}
	qvars := query.Vars()
	for i, v := range pl.Query.Vars() {
		if v != qvars[i] {
			b.vars[v] = qvars[i]
			names = append(names, v)
		}
	}
	if len(names) == 0 {
		return pl
	}
	// Longest name first, so $V10 is replaced before $V1 can match inside
	// it. A parameter is a constant, so rendered text spells it quoted.
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	var pairs []string
	for _, name := range names {
		if c, ok := b.consts[name]; ok {
			pairs = append(pairs, ast.C(name).String(), c.String())
		} else {
			pairs = append(pairs, name, b.vars[name])
		}
	}
	b.text = strings.NewReplacer(pairs...)
	return &Pipeline{Program: pl.Program, Query: query, Constraints: pl.Constraints, tmpl: pl, bound: b}
}

// stage binds one of the template's stage outcomes.
func (b *binding) stage(m stageMemo) stageMemo {
	out := stageMemo{done: true, rec: m.rec, rewritten: rewritten{
		prog:  b.program(m.prog),
		query: b.atom(m.query),
	}}
	for _, r := range m.reductions {
		out.reductions = append(out.reductions, b.text.Replace(r))
	}
	if m.err != nil {
		out.err = boundErr{err: m.err, text: b.text}
	}
	return out
}

func (b *binding) program(p *ast.Program) *ast.Program {
	if p == nil {
		return nil
	}
	out := &ast.Program{Rules: make([]ast.Rule, len(p.Rules))}
	for i, r := range p.Rules {
		body := make([]ast.Atom, len(r.Body))
		for j, a := range r.Body {
			body[j] = b.atom(a)
		}
		out.Rules[i] = ast.Rule{Head: b.atom(r.Head), Body: body}
	}
	return out
}

func (b *binding) atom(a ast.Atom) ast.Atom {
	args := make([]ast.Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = b.term(t)
	}
	return ast.Atom{Pred: a.Pred, Args: args}
}

func (b *binding) term(t ast.Term) ast.Term {
	switch t.Kind {
	case ast.Const:
		if c, ok := b.consts[t.Functor]; ok {
			return c
		}
	case ast.Var:
		if v, ok := b.vars[t.Functor]; ok {
			return ast.V(v)
		}
	case ast.Compound:
		args := make([]ast.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = b.term(a)
		}
		return ast.Term{Kind: ast.Compound, Functor: t.Functor, Args: args}
	}
	return t
}

// boundErr is a template's compile error as the bound query sees it: the
// message names the query's constants, and errors.Is still reaches the
// template's error.
type boundErr struct {
	err  error
	text *strings.Replacer
}

func (e boundErr) Error() string { return e.text.Replace(e.err.Error()) }
func (e boundErr) Unwrap() error { return e.err }
