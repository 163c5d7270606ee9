package engine

import (
	"context"

	"factorlog/internal/ast"
	"factorlog/internal/obsv"
)

// This file opens engine internals to the external tests of package
// engine_test, which need packages that import the engine (pipeline for the
// rewrites, workload for the inputs) and so cannot live in package engine.

// CompiledRule is the compiler's lowering of one rule, with the program it
// belongs to and that program's constants interned in a store.
type CompiledRule struct {
	*compiledRule
	prog   *CompiledProgram
	consts []Val
}

// CompileProgram lowers every rule of p, as Eval does, and interns its
// constants in store.
func CompileProgram(p *ast.Program, store *Store, reorder bool) ([]*CompiledRule, error) {
	cp, err := compile(p, reorder, false)
	if err != nil {
		return nil, err
	}
	consts := internConsts(cp.consts, store, nil)
	rules := make([]*CompiledRule, len(cp.rules))
	for i, r := range cp.rules {
		rules[i] = &CompiledRule{r, cp, consts}
	}
	return rules, nil
}

// Body returns the compiled body literals in source order.
func (r *compiledRule) Body() []literalSpec { return r.body }

// Label renders the rule's source.
func (r *compiledRule) Label() string { return r.label() }

// Pred returns the literal's predicate name.
func (l *literalSpec) Pred() string { return l.pred }

// IsIDB reports whether the literal's predicate is a rule head of the
// compiled program.
func (l *literalSpec) IsIDB() bool { return l.idb }

// RebuildJoins rebuilds m from its base and returns the join counters of
// the build's insertion waves.
func RebuildJoins(m *Materialization) (obsv.RuleStats, error) {
	var joins obsv.RuleStats
	m.joins = &joins
	defer func() { m.joins = nil }()
	err := m.Rebuild(context.Background())
	return joins, err
}

// PassWindows selects the round windows one delta pass runs under.
type PassWindows int

const (
	// RoundWindows are Eval's semi-naive windows for round k.
	RoundWindows PassWindows = iota
	// InsertWindows are a materialization's insertion-wave windows for
	// wave k.
	InsertWindows
	// DeleteWindows are a deletion wave's windows: alive rows stamped 0,
	// dying rows 1 (see StampDying); k is unused.
	DeleteWindows
)

// DeltaPass runs one delta pass of r over db — the literal at source
// position deltaOcc over its delta, the positions in occs windowed as w
// prescribes for round or wave k — and returns the emitted head tuples in
// emission order, inserting nothing. It joins in source order, or in r's
// delta-led order for deltaOcc when deltaLed is set.
func DeltaPass(db *DB, r *CompiledRule, w PassWindows, occs []int, deltaOcc int, k int32, deltaLed bool) ([][]Val, error) {
	mt := &maintainer{wave: k}
	mt.rn.db, mt.rn.consts = db, r.consts
	for _, p := range r.prog.preds {
		mt.rn.preds = append(mt.rn.preds, db.Lookup(p.name))
	}
	var heads [][]Val
	mt.rn.sink = func(_ *compiledRule, tuple []Val, _ []FactID) error {
		heads = append(heads, append([]Val(nil), tuple...))
		return nil
	}
	switch w {
	case RoundWindows:
		mt.rn.setLimits(r.compiledRule, occs, deltaOcc, k, unrestricted)
	case InsertWindows:
		mt.rn.setLimits(r.compiledRule, occs, deltaOcc, k, roundRange{0, k})
	case DeleteWindows:
		mt.rn.setLimits(r.compiledRule, occs, deltaOcc, 1, roundRange{0, 1})
	}
	var jo *joinOrder
	if deltaLed {
		jo = &r.deltaLed[deltaOcc]
	}
	err := mt.rn.runRule(r.compiledRule, jo)
	return heads, err
}

// StampDying resets db's round stamps and stamps the given rows of each
// predicate dying, the state a deletion wave's passes run in. A relation
// aliased from a base image is first made private to db, as Apply does
// before a row of it can die.
func StampDying(db *DB, dying map[string][]int32) {
	db.resetRounds()
	for pred, rows := range dying {
		rel, err := db.own(pred, db.Lookup(pred).Arity())
		if err != nil {
			panic(err)
		}
		for _, row := range rows {
			rel.stampDying(row)
		}
	}
}
