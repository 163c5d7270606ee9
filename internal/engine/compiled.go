package engine

import (
	"fmt"
	"strings"

	"factorlog/internal/ast"
)

// This file is the exported face of the rule compiler. The compiled forms
// themselves (compiledRule, literalSpec, pattern, indexNeed) stay unexported
// so the evaluator's internals remain free to change, but the streaming
// executor (internal/stream) consumes the same compiled plans the fixpoint
// evaluators run — same slot numbering, same bound/free column split, same
// index needs — so the two executors can never drift apart on what a rule
// means. The aliases below re-export the types and the methods re-export
// the operations stream needs: pattern evaluation and matching against the
// hash-consed store, and the compiled shape of each body literal.

// CompiledRule is an executable rule: the compiler's lowering of one
// ast.Rule, shared by the fixpoint evaluators and the streaming executor.
type CompiledRule = compiledRule

// LiteralSpec is one compiled body literal of a CompiledRule.
type LiteralSpec = literalSpec

// Pattern is a compiled term: an interned constant, a slot number into the
// rule's binding frame, or a compound shape over sub-patterns.
type Pattern = pattern

// IndexNeed is one (relation, columns) hash index a rule's body probes.
type IndexNeed = indexNeed

// CompileProgram lowers every rule of p against store, validating safety
// and arity consistency. With reorder set, body literals are greedily
// reordered most-bound-first (see Options.ReorderJoins). Like Eval's
// compile step it runs behind a recover barrier: a compiler panic returns a
// *PanicError wrapping ErrInternal.
func CompileProgram(p *ast.Program, store *Store, reorder bool) ([]*CompiledRule, error) {
	return compileRulesGuarded(p, store, reorder)
}

// Rule returns the source rule this plan was compiled from (post-reorder
// when the compiler reordered the body, so body positions align with Body).
func (r *compiledRule) Rule() ast.Rule { return r.src }

// RuleIndex returns the rule's position in the compiled program.
func (r *compiledRule) RuleIndex() int { return r.idx }

// NSlots returns the size of the rule's binding frame.
func (r *compiledRule) NSlots() int { return r.nslots }

// HeadPred returns the head predicate name.
func (r *compiledRule) HeadPred() string { return r.headPred }

// HeadArgs returns the compiled head argument patterns.
func (r *compiledRule) HeadArgs() []Pattern { return r.headArgs }

// Body returns the compiled body literals in source order, the order every
// non-delta pass joins in (a fixpoint delta pass may lead with its delta).
func (r *compiledRule) Body() []LiteralSpec { return r.body }

// IndexNeeds returns the (relation, columns) indexes the body probes.
func (r *compiledRule) IndexNeeds() []IndexNeed { return r.indexNeeds }

// Label renders the rule's source for trace records and plan displays.
func (r *compiledRule) Label() string { return r.label() }

// Pred returns the literal's predicate name.
func (l *literalSpec) Pred() string { return l.pred }

// Arity returns the literal's argument count.
func (l *literalSpec) Arity() int { return l.arity }

// Args returns the literal's compiled argument patterns.
func (l *literalSpec) Args() []Pattern { return l.args }

// BoundCols returns the columns fully bound before this literal runs — the
// probe key the evaluator pushes into an index lookup. Sorted ascending. A
// bound column at or past IndexableColumns is never here: it is in
// FreeCols, matched against its bound pattern like any residual column.
func (l *literalSpec) BoundCols() []int { return l.boundCols }

// FreeCols returns the columns matched residually against each candidate.
func (l *literalSpec) FreeCols() []int { return l.freeCols }

// IsIDB reports whether the literal's predicate is a rule head somewhere in
// the compiled program.
func (l *literalSpec) IsIDB() bool { return l.idb }

// Pred returns the indexed relation's predicate name.
func (n indexNeed) Pred() string { return n.pred }

// Cols returns the indexed columns, sorted ascending.
func (n indexNeed) Cols() []int { return n.cols }

// IsConst reports whether the pattern is an interned constant and returns
// its value.
func (p Pattern) IsConst() (Val, bool) { return p.val, p.kind == patConst }

// VarSlot reports whether the pattern is a variable and returns its slot.
func (p Pattern) VarSlot() (int, bool) { return p.slot, p.kind == patVar }

// Eval builds the Val a fully bound pattern denotes under slots.
func (p Pattern) Eval(slots []Val, store *Store) Val {
	return evalPattern(p, slots, store)
}

// Match matches the pattern against v, binding unbound slots (recorded on
// trail for UndoTrail) and checking bound ones.
func (p Pattern) Match(v Val, slots []Val, trail *[]int, store *Store) bool {
	return matchPattern(p, v, slots, trail, store)
}

// Render prints the pattern for plan displays: constants by their interned
// name, variables as $slot, compounds structurally.
func (p Pattern) Render(store *Store) string {
	switch p.kind {
	case patConst:
		return store.String(p.val)
	case patVar:
		return fmt.Sprintf("$%d", p.slot)
	default:
		parts := make([]string, len(p.args))
		for i, a := range p.args {
			parts[i] = a.Render(store)
		}
		return p.functor + "(" + strings.Join(parts, ",") + ")"
	}
}

// UndoTrail unbinds the slots recorded on trail past mark and returns the
// truncated trail; the undo half of Pattern.Match.
func UndoTrail(slots []Val, trail []int, mark int) []int {
	return undoTrail(slots, trail, mark)
}

// HashVals hashes a tuple or probe key of Val words — the same hash the
// relation's membership table and column indexes use, exported so the
// streaming executor's transient build tables agree with the arenas.
func HashVals(key []Val) uint64 { return hashVals(key) }
