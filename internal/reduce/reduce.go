// Package reduce implements argument reduction with respect to static
// argument positions (Definitions 5.1-5.2, Lemmas 5.1-5.2 of the paper):
// a bound argument position through which the query constant is passed
// unchanged by every recursive call can be replaced by the constant itself
// and deleted, lowering the predicate's arity. Reduction turns some
// programs outside the factorable classes (pseudo-left-linear rules,
// Example 5.2; shared bound variables, Example 5.1) into programs the
// theorems of Section 4 cover.
package reduce

import (
	"fmt"

	"factorlog/internal/ast"
)

// StaticPositions returns the argument positions of pred that are static
// with respect to the query (Definition 5.1): the position is bound (the
// query argument is ground) and in every rule, every body occurrence of
// pred carries the same variable there as the head. Positions whose head
// or body arguments are not plain variables are skipped (not static).
//
// The program must be a unit program for pred in the sense that all rules
// define pred; other head predicates are an error.
func StaticPositions(p *ast.Program, query ast.Atom) ([]int, error) {
	pred := query.Pred
	arity := len(query.Args)
	for _, r := range p.Rules {
		if r.Head.Pred != pred {
			return nil, fmt.Errorf("rule head %s: reduction requires a unit program for %s", r.Head, pred)
		}
		if len(r.Head.Args) != arity {
			return nil, fmt.Errorf("arity mismatch: query %d vs head %s", arity, r.Head)
		}
	}
	var out []int
positions:
	for pos := 0; pos < arity; pos++ {
		if !query.Args[pos].Ground() {
			continue // free position: not a candidate
		}
		for _, r := range p.Rules {
			h := r.Head.Args[pos]
			if !h.IsVar() {
				continue positions
			}
			for _, b := range r.Body {
				if b.Pred != pred {
					continue
				}
				if !b.Args[pos].IsVar() || b.Args[pos].Functor != h.Functor {
					continue positions
				}
			}
		}
		out = append(out, pos)
	}
	return out, nil
}

// Reduce produces the program reduced with respect to static position pos
// (Definition 5.2): the query constant is substituted for the variable in
// that position and the position is deleted from every occurrence of the
// predicate. It returns the reduced program and the reduced query; the
// reduced predicate is named <pred>_r<pos>. By Lemma 5.1 the reduced
// program is equivalent to the original with respect to the query.
func Reduce(p *ast.Program, query ast.Atom, pos int) (*ast.Program, ast.Atom, error) {
	static, err := StaticPositions(p, query)
	if err != nil {
		return nil, ast.Atom{}, err
	}
	ok := false
	for _, s := range static {
		if s == pos {
			ok = true
		}
	}
	if !ok {
		return nil, ast.Atom{}, fmt.Errorf("position %d of %s is not static for query %s",
			pos, query.Pred, query)
	}
	pred := query.Pred
	c := query.Args[pos]
	newPred := fmt.Sprintf("%s_r%d", pred, pos)

	drop := func(a ast.Atom) ast.Atom {
		args := make([]ast.Term, 0, len(a.Args)-1)
		args = append(args, a.Args[:pos]...)
		args = append(args, a.Args[pos+1:]...)
		return ast.Atom{Pred: newPred, Args: args}
	}

	out := &ast.Program{}
	for _, r := range p.Rules {
		s := ast.Subst{r.Head.Args[pos].Functor: c}
		rr := s.ApplyRule(r)
		body := make([]ast.Atom, len(rr.Body))
		for i, b := range rr.Body {
			if b.Pred == pred {
				body[i] = drop(b)
			} else {
				body[i] = b
			}
		}
		out.Add(ast.Rule{Head: drop(rr.Head), Body: body})
	}
	return out, drop(query), nil
}

// Step records one reduction: Pred/Arity lost position Pos and became
// Reduced, of arity Arity-1.
type Step struct {
	Pred    string
	Arity   int
	Pos     int
	Reduced string
}

// String renders the step as EXPLAIN lists it.
func (s Step) String() string {
	return fmt.Sprintf("static-argument reduction (Def. 5.2): %s → %s at position %d",
		ast.FmtPredArity(s.Pred, s.Arity), ast.FmtPredArity(s.Reduced, s.Arity-1), s.Pos)
}

// ReduceAll reduces with respect to every static position, left to right,
// returning the final program and query and the reductions in the order
// applied. With no static positions it returns the inputs unchanged and no
// steps.
func ReduceAll(p *ast.Program, query ast.Atom) (*ast.Program, ast.Atom, []Step, error) {
	var steps []Step
	for {
		static, err := StaticPositions(p, query)
		if err != nil {
			return nil, ast.Atom{}, nil, err
		}
		if len(static) == 0 {
			return p, query, steps, nil
		}
		rp, rq, err := Reduce(p, query, static[0])
		if err != nil {
			return nil, ast.Atom{}, nil, err
		}
		steps = append(steps, Step{Pred: query.Pred, Arity: len(query.Args), Pos: static[0], Reduced: rq.Pred})
		p, query = rp, rq
	}
}
