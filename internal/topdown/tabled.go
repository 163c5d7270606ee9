package topdown

import (
	"fmt"
	"slices"
	"sort"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
)

// Tabled (memoizing) top-down evaluation in the QSQR style: every IDB goal
// gets an answer table keyed by the goal up to variable renaming, and
// evaluation repeats to a global fixpoint. Unlike plain SLD (Solve), tabled
// evaluation terminates on left-recursive Datalog and re-proves nothing.
//
// This is the evaluation strategy the Magic Sets transformation simulates
// bottom-up: the set of tabled goals corresponds exactly to the magic facts
// (the goal projections on bound arguments), which TestTabledMatchesMagic
// checks mechanically.

// TabledStats reports the work of a tabled evaluation.
type TabledStats struct {
	// Steps counts rule trials, table-answer trials and EDB candidate
	// rows: for an EDB goal, the live rows the column index returns for
	// its ground arguments (every live row when it has none), not the
	// tuples of the relation as in Stats.
	Steps int
	// Goals is the number of distinct tabled goals (the magic-fact count).
	Goals int
	// Answers is the total number of table entries (the p^a fact count of
	// the Magic program).
	Answers int
	// Rounds is the number of global fixpoint passes.
	Rounds int
}

// TabledResult is the outcome of SolveTabled.
type TabledResult struct {
	Answers []ast.Atom
	Stats   TabledStats
	// Goals lists the canonical tabled goals, sorted; each corresponds to
	// one magic fact of the Magic-transformed program.
	Goals []string
}

// AnswerSet renders the answers as a set.
func (r *TabledResult) AnswerSet() map[string]bool {
	out := make(map[string]bool, len(r.Answers))
	for _, a := range r.Answers {
		out[a.String()] = true
	}
	return out
}

type answerTable struct {
	goal    ast.Atom
	answers []ast.Atom
	seen    map[string]bool
}

type tabledSolver struct {
	program  *ast.Program
	db       *engine.DB
	idb      map[string]bool
	opts     Options
	gen      *ast.FreshGen
	tables   map[string]*answerTable
	order    []string
	visiting map[string]bool
	changed  bool
	steps    int
}

// SolveTabled evaluates query over p and db with tabling. MaxSteps bounds
// total work (function-symbol programs can still diverge); MaxDepth and
// MaxSolutions are ignored.
func SolveTabled(p *ast.Program, db *engine.DB, query ast.Atom, opts Options) (*TabledResult, error) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 10_000_000
	}
	s := &tabledSolver{
		program:  p,
		db:       db,
		idb:      p.IDBPreds(),
		opts:     opts,
		gen:      ast.NewFreshGenProgram(p),
		tables:   map[string]*answerTable{},
		visiting: map[string]bool{},
	}
	for _, v := range query.Vars() {
		s.gen.Reserve(v)
	}

	res := &TabledResult{}
	for {
		s.changed = false
		s.visiting = map[string]bool{}
		if _, err := s.evalGoal(query); err != nil {
			return nil, err
		}
		res.Stats.Rounds++
		if !s.changed {
			break
		}
	}

	key := query.CanonicalKey()
	if tbl := s.tables[key]; tbl != nil {
		res.Answers = append(res.Answers, tbl.answers...)
	}
	res.Stats.Steps = s.steps
	res.Stats.Goals = len(s.tables)
	for _, k := range s.order {
		res.Goals = append(res.Goals, k)
		res.Stats.Answers += len(s.tables[k].answers)
	}
	sort.Strings(res.Goals)
	return res, nil
}

// evalGoal evaluates one IDB goal against its table, extending it with any
// new answers, and returns the table.
func (s *tabledSolver) evalGoal(goal ast.Atom) (*answerTable, error) {
	key := goal.CanonicalKey()
	tbl := s.tables[key]
	if tbl == nil {
		tbl = &answerTable{goal: goal.Clone(), seen: map[string]bool{}}
		s.tables[key] = tbl
		s.order = append(s.order, key)
	}
	if s.visiting[key] {
		return tbl, nil // recursive re-entry: use current answers
	}
	s.visiting[key] = true

	for _, r := range s.program.RulesFor(goal.Pred) {
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return nil, s.tabledBudget()
		}
		rr := r.RenameApart(s.gen)
		sub, ok := ast.UnifyAtoms(rr.Head, goal, nil)
		if !ok {
			continue
		}
		if err := s.solveBody(rr.Body, sub, func(final ast.Subst) error {
			ans := final.ApplyAtom(goal)
			k := ans.String()
			if !tbl.seen[k] {
				tbl.seen[k] = true
				tbl.answers = append(tbl.answers, ans)
				s.changed = true
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// solveBody proves the body conjunction, consulting tables for IDB goals.
func (s *tabledSolver) solveBody(goals []ast.Atom, sub ast.Subst, yield yieldFn) error {
	if len(goals) == 0 {
		return yield(sub)
	}
	goal := sub.ApplyAtom(goals[0])
	rest := goals[1:]

	if !s.idb[goal.Pred] {
		return s.matchEDB(goal, sub, func(s2 ast.Subst) error {
			return s.solveBody(rest, s2, yield)
		})
	}

	tbl, err := s.evalGoal(goal)
	if err != nil {
		return err
	}
	// Iterate by index: answers appended during iteration are consumed in
	// the same pass where possible (the outer fixpoint covers the rest).
	for i := 0; i < len(tbl.answers); i++ {
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return s.tabledBudget()
		}
		s2, ok := ast.UnifyAtoms(goal, tbl.answers[i], sub)
		if !ok {
			continue
		}
		if err := s.solveBody(rest, s2, yield); err != nil {
			return err
		}
	}
	return nil
}

func (s *tabledSolver) tabledBudget() error {
	return fmt.Errorf("%w: steps %d", ErrBudget, s.steps)
}

// matchEDB proves the EDB goal against its relation, calling yield once
// per matching tuple. The goal's ground arguments select the candidate
// rows through a column index — built on first use and kept by the
// relation, so on a base image version every later request reuses it —
// and only the other positions of a candidate are rendered to AST and
// unified. A goal with no ground argument scans. One step is counted per
// live candidate row.
func (s *tabledSolver) matchEDB(goal ast.Atom, sub ast.Subst, yield yieldFn) error {
	rel := s.db.Lookup(goal.Pred)
	if rel == nil || rel.Arity() != len(goal.Args) {
		return nil
	}
	var cols []int
	var key []engine.Val
	for i, t := range goal.Args {
		if !t.Ground() || i >= engine.IndexableColumns {
			continue
		}
		v, ok := s.db.Store.Find(t)
		if !ok {
			return nil // never interned, so in no tuple
		}
		cols = append(cols, i)
		key = append(key, v)
	}
	try := func(pos int32) error {
		if rel.Round(pos) < 0 {
			return nil // deleted
		}
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return s.tabledBudget()
		}
		s2 := sub
		tuple := rel.Tuple(pos)
		for i, t := range goal.Args {
			if slices.Contains(cols, i) {
				continue // matched by the probe
			}
			var ok bool
			if s2, ok = ast.Unify(t, s.db.Store.ToAST(tuple[i]), s2); !ok {
				return nil
			}
		}
		return yield(s2)
	}
	if len(cols) == 0 {
		for pos := int32(0); pos < int32(rel.Len()); pos++ {
			if err := try(pos); err != nil {
				return err
			}
		}
		return nil
	}
	for _, pos := range rel.Probe(cols, key) {
		if err := try(pos); err != nil {
			return err
		}
	}
	return nil
}
