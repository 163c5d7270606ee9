package core

import (
	"errors"
	"fmt"

	"factorlog/internal/ast"
	"factorlog/internal/magic"
	"factorlog/internal/reduce"
)

// ErrNotFactorable is returned when none of the sufficient conditions of
// Section 4 certifies that the Magic program factors.
var ErrNotFactorable = errors.New("no factorability condition of Section 4 applies")

// FactorResult is the outcome of factoring a Magic program.
type FactorResult struct {
	// Program is the factored Magic program (Fig. 2 of the paper for the
	// three-rule transitive closure). Apply the optimize package to reach
	// the paper's final reduced programs.
	Program *ast.Program
	// Class is the certificate used.
	Class Class
	// Split records how the recursive predicate was divided.
	Split Split
	// Analysis is the structural analysis of the adorned program.
	Analysis *Analysis
	// Query is the answer predicate head, unchanged from the Magic result.
	Query ast.Atom
	// Magic is the Magic program that was factored; its seed carries the
	// query's bound constants (Proposition 5.3). Nil when static-argument
	// reduction removed every bound position, so there was nothing to factor.
	Magic *magic.Result
	// Reduced lists the static-argument reductions (Definition 5.2) applied
	// to the source program before it was factored, in order; empty when the
	// Magic program of the query as posed factored.
	Reduced []reduce.Step
}

// Certificate names what licenses the factored program: the Section 4
// class that certified the split, qualified when static-argument reduction
// came first, or the reduction alone (Lemma 5.1) when it left no bound
// argument to factor.
func (fr *FactorResult) Certificate() string {
	switch {
	case len(fr.Reduced) == 0:
		return fr.Class.String()
	case fr.Magic == nil:
		return "static-argument reduction (Lemma 5.1)"
	}
	return fr.Class.String() + " after static-argument reduction"
}

// FactorMagic factors the recursive predicate of a Magic program into its
// bound and free parts, when one of Theorems 4.1-4.3 certifies the
// factoring property — testing containments relative to the given EDB
// constraints (full TGDs; nil for none). It returns ErrNotFactorable
// (wrapped, with the per-class reasons) otherwise.
func FactorMagic(m *magic.Result, constraints []ast.Rule) (*FactorResult, error) {
	analysis, err := Analyze(m.Adorned)
	if err != nil {
		return nil, err
	}
	if _, err := analysis.WithConstraints(constraints); err != nil {
		return nil, err
	}
	class := Classify(analysis)
	if !class.Factorable() {
		_, spReason := SelectionPushing(analysis)
		_, symReason := Symmetric(analysis)
		_, apReason := AnswerPropagating(analysis)
		return nil, fmt.Errorf("%w: selection-pushing: %s; symmetric: %s; answer-propagating: %s",
			ErrNotFactorable, spReason, symReason, apReason)
	}
	return factorWith(m, analysis, class)
}

// ForceFactorMagic factors the Magic program without any certificate. The
// result computes a superset-or-equal relation for the query in general;
// it exists to demonstrate (as in Example 4.3) what goes wrong when the
// class conditions are violated, and for experimentation with programs
// whose factorability is known by other means.
func ForceFactorMagic(m *magic.Result) (*FactorResult, error) {
	analysis, err := Analyze(m.Adorned)
	if err != nil {
		return nil, err
	}
	return factorWith(m, analysis, ClassUnknown)
}

func factorWith(m *magic.Result, analysis *Analysis, class Class) (*FactorResult, error) {
	taken := map[string]bool{}
	collect := func(a ast.Atom) { taken[a.Pred] = true }
	for _, r := range m.Program.Rules {
		collect(r.Head)
		for _, b := range r.Body {
			collect(b)
		}
	}
	split, err := BoundFreeSplit(analysis.Pred, taken)
	if err != nil {
		return nil, err
	}
	factored, err := Apply(m.Program, split)
	if err != nil {
		return nil, err
	}
	return &FactorResult{
		Program:  factored,
		Class:    class,
		Split:    split,
		Analysis: analysis,
		Query:    m.Query,
		Magic:    m,
	}, nil
}
