// Package topdown implements SLD resolution with the left-to-right
// computation rule and depth-first search — the "Prolog" baseline the paper
// compares against in Examples 1.2 and 4.6.
//
// The resolver is deliberately memo-less: like standard Prolog it re-proves
// identical subgoals, which is exactly the source of the O(n^2) behaviour
// the paper attributes to Prolog on the pmem program. Left-recursive
// programs diverge under this strategy, as they do in Prolog; use the
// Options budgets to bound the search.
//
// The two resolvers read the EDB differently, on purpose. SLD (Solve)
// scans: every fact of the goal's relation is tried, as Prolog tries every
// clause, so its step counts stay the paper's baseline. Tabled evaluation
// (SolveTabled) probes: the goal's ground arguments select candidate rows
// through the relation's column index, the lookup a magic fact's join
// performs bottom-up. Both skip deleted rows.
package topdown

import (
	"errors"
	"fmt"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
)

// ErrBudget is returned (wrapped) when the search exceeds MaxSteps or
// MaxDepth.
var ErrBudget = errors.New("top-down budget exceeded")

// Options bounds the SLD search.
type Options struct {
	// MaxSteps bounds total resolution steps; 0 means 1e7 (a safety net —
	// plain SLD diverges on left recursion).
	MaxSteps int
	// MaxDepth bounds the resolution depth; 0 means 100000.
	MaxDepth int
	// MaxSolutions stops after this many solutions; 0 means all.
	MaxSolutions int
}

// Stats reports the work the resolver performed.
type Stats struct {
	// Steps counts goal-reduction attempts: one per rule or fact tried
	// against a selected goal.
	Steps int
	// Solutions counts complete proofs of the query, including proofs that
	// instantiate it identically.
	Solutions int
	// IDBSuccesses counts successes of IDB subgoals across the whole
	// search: every time some instance of an intensional goal is proved.
	// This is the paper's "facts computed by Prolog" measure — O(n^2) for
	// the pmem program of Example 1.2.
	IDBSuccesses int
	// DistinctGoals counts distinct selected goals up to variable renaming.
	DistinctGoals int
	// MaxDepthSeen is the deepest resolution reached.
	MaxDepthSeen int
}

// Result holds the answers to the query: the distinct instantiations of the
// query atom, in discovery order.
type Result struct {
	Answers []ast.Atom
	Stats   Stats
}

// AnswerSet returns the answers as a set of rendered atoms.
func (r *Result) AnswerSet() map[string]bool {
	out := make(map[string]bool, len(r.Answers))
	for _, a := range r.Answers {
		out[a.String()] = true
	}
	return out
}

// Solve runs SLD resolution for query over p and db, returning all
// solutions found within the budget.
func Solve(p *ast.Program, db *engine.DB, query ast.Atom, opts Options) (*Result, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 100_000
	}
	s := &solver{
		program: p,
		db:      db,
		idb:     p.IDBPreds(),
		opts:    opts,
		gen:     ast.NewFreshGenProgram(p),
		seen:    map[string]bool{},
		edbAST:  map[string][][]ast.Term{},
	}
	for _, v := range query.Vars() {
		s.gen.Reserve(v)
	}
	res := &Result{}
	answerSeen := map[string]bool{}
	err := s.solve([]ast.Atom{query}, ast.Subst{}, 1, func(sub ast.Subst) error {
		res.Stats.Solutions++
		inst := sub.ApplyAtom(query)
		if key := inst.String(); !answerSeen[key] {
			answerSeen[key] = true
			res.Answers = append(res.Answers, inst)
		}
		if opts.MaxSolutions > 0 && res.Stats.Solutions >= opts.MaxSolutions {
			return errStop
		}
		return nil
	})
	res.Stats.Steps = s.steps
	res.Stats.IDBSuccesses = s.idbSuccesses
	res.Stats.DistinctGoals = len(s.seen)
	res.Stats.MaxDepthSeen = s.maxDepth
	if err != nil && !errors.Is(err, errStop) {
		return res, err
	}
	return res, nil
}

// errStop signals an early cut after MaxSolutions.
var errStop = errors.New("solution limit reached")

type yieldFn func(ast.Subst) error

type solver struct {
	program      *ast.Program
	db           *engine.DB
	idb          map[string]bool
	opts         Options
	gen          *ast.FreshGen
	steps        int
	idbSuccesses int
	maxDepth     int
	seen         map[string]bool
	edbAST       map[string][][]ast.Term // cached AST views of EDB tuples
}

func (s *solver) errBudget(what string, n int) error {
	return fmt.Errorf("%w: %s %d", ErrBudget, what, n)
}

// solve proves the conjunction of goals under sub, invoking yield once per
// solution.
func (s *solver) solve(goals []ast.Atom, sub ast.Subst, depth int, yield yieldFn) error {
	if len(goals) == 0 {
		return yield(sub)
	}
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	if depth > s.opts.MaxDepth {
		return s.errBudget("depth", depth)
	}
	goal := sub.ApplyAtom(goals[0])
	rest := goals[1:]
	s.seen[goal.CanonicalKey()] = true
	isIDB := s.idb[goal.Pred]
	return s.solveGoal(goal, sub, depth, func(s2 ast.Subst) error {
		if isIDB {
			s.idbSuccesses++
		}
		return s.solve(rest, s2, depth, yield)
	})
}

// solveGoal proves a single goal, invoking yield once per proof.
func (s *solver) solveGoal(goal ast.Atom, sub ast.Subst, depth int, yield yieldFn) error {
	if !s.idb[goal.Pred] {
		for _, args := range s.edbTuples(goal.Pred, len(goal.Args)) {
			s.steps++
			if s.steps > s.opts.MaxSteps {
				return s.errBudget("steps", s.steps)
			}
			s2 := sub
			ok := true
			for i, t := range goal.Args {
				var u bool
				s2, u = ast.Unify(t, args[i], s2)
				if !u {
					ok = false
					break
				}
			}
			if ok {
				if err := yield(s2); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for _, r := range s.program.RulesFor(goal.Pred) {
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return s.errBudget("steps", s.steps)
		}
		rr := r.RenameApart(s.gen)
		s2, ok := ast.UnifyAtoms(rr.Head, goal, sub)
		if !ok {
			continue
		}
		if err := s.solve(rr.Body, s2, depth+1, yield); err != nil {
			return err
		}
	}
	return nil
}

// edbTuples returns the live facts for pred as AST term slices, cached.
// The resolver tries every one against each selected EDB goal, index-free
// like Prolog's clause scan, so Stats.Steps keeps the baseline's count.
func (s *solver) edbTuples(pred string, arity int) [][]ast.Term {
	if cached, ok := s.edbAST[pred]; ok {
		return cached
	}
	var out [][]ast.Term
	if rel := s.db.Lookup(pred); rel != nil && rel.Arity() == arity {
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			if rel.Round(pos) < 0 {
				continue // deleted
			}
			tuple := rel.Tuple(pos)
			args := make([]ast.Term, len(tuple))
			for i, v := range tuple {
				args[i] = s.db.Store.ToAST(v)
			}
			out = append(out, args)
		}
	}
	s.edbAST[pred] = out
	return out
}
