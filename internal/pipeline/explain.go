package pipeline

import (
	"fmt"
	"strings"

	"factorlog/internal/ast"
	"factorlog/internal/core"
	"factorlog/internal/depgraph"
	"factorlog/internal/engine"
	"factorlog/internal/stream"
)

// This file implements the plan half of EXPLAIN: a structured description
// of what one strategy's compiled plan looks like — the transformed rule
// set, which §4/§5 reductions applied, and the stratum schedule the
// parallel evaluator would run. EXPLAIN ANALYZE adds the measured span tree
// on top (the server composes the two; see cmd/factorlogd).

// StratumPlan is one stratum of the plan's topological schedule.
type StratumPlan struct {
	// Index is the stratum's position in the schedule.
	Index int `json:"index"`
	// Preds are the IDB predicates the stratum defines.
	Preds []string `json:"preds"`
	// Recursive reports whether the stratum needs a fixpoint.
	Recursive bool `json:"recursive"`
	// Rules counts the rules belonging to the stratum.
	Rules int `json:"rules"`
	// Executor is the streaming planner's classification: "stream" for
	// strata the streaming executor runs as iterator pipelines (when
	// engine.Options.Streaming selects it), "fixpoint" for recursive strata.
	// The classification is always computed so EXPLAIN describes what a
	// streamed run would do even when the run itself materializes.
	Executor string `json:"executor"`
	// Reason says why the planner chose that executor.
	Reason string `json:"reason,omitempty"`
	// Plans holds the per-rule streaming operator trees (with pushed
	// predicates) of a streamable stratum; nil for fixpoint strata.
	Plans []*stream.RulePlan `json:"plans,omitempty"`
}

// ExplainInfo describes one strategy's compiled plan for a query.
type ExplainInfo struct {
	// Strategy is the strategy name ("factored+opt", ...).
	Strategy string `json:"strategy"`
	// Query is the original query atom; Adornment its binding pattern.
	Query     string `json:"query"`
	Adornment string `json:"adornment"`
	// Rules is the transformed rule set the strategy evaluates, one rendered
	// rule per line in program order.
	Rules []string `json:"rules"`
	// Reductions lists the §4/§5 reductions (and other rewrites) that
	// applied, in application order: the Magic transformation, the factoring
	// theorem used with its predicate split, and each Section 5 clean-up
	// step. Empty for strategies that evaluate the source program directly.
	Reductions []string `json:"reductions"`
	// Strata is the topological stratum schedule of the evaluated program.
	Strata []StratumPlan `json:"strata"`
	// Stages are the compile-stage records (wall, rule/arity deltas) the
	// pipeline measured building this plan.
	Stages []stageRecord `json:"stages,omitempty"`
	// Candidates is the Auto planner's candidate table (strategy, ordering,
	// estimated cost, chosen/rejected reason) when the plan was picked by the
	// adaptive optimizer; empty for fixed-strategy plans.
	Candidates []CandidateInfo `json:"candidates,omitempty"`
}

// Explain compiles strategy s (memoized, like Run) and describes the
// resulting plan. It fails with the same error Run would when the strategy
// is unavailable for this program (e.g. Factored on a non-factorable one).
func (pl *Pipeline) Explain(s Strategy) (*ExplainInfo, error) {
	if err := pl.Compile(s); err != nil {
		return nil, err
	}
	info := &ExplainInfo{
		Strategy:  s.String(),
		Query:     pl.Query.String(),
		Adornment: string(ast.AdornmentOf(pl.Query, nil)),
		Stages:    pl.stagesFor(s),
	}

	// Walk the chain (Compile succeeded, so every stage of it is memoized):
	// the last stage's program is the one evaluated, and each stage
	// contributes its reduction lines.
	prog := pl.Program
	for _, id := range s.row().chain {
		m := pl.stage(id)
		prog = m.prog
		info.Reductions = append(info.Reductions, m.reductions...)
	}

	for _, r := range prog.Rules {
		info.Rules = append(info.Rules, r.String())
	}
	// The streaming planner subsumes the bare depgraph schedule: same
	// strata, plus the executor decision and the per-rule operator trees of
	// the streamable ones. It is computed unconditionally so EXPLAIN
	// describes the streaming plan whether or not the run opts in.
	splan, err := stream.PlanProgram(prog, engine.NewStore(), false)
	if err != nil {
		// Fall back to the schedule alone (e.g. a program the rule compiler
		// rejects but the depgraph can still stratify).
		for i, st := range depgraph.Analyze(prog).Strata {
			info.Strata = append(info.Strata, StratumPlan{
				Index:     i,
				Preds:     st.Preds,
				Recursive: st.Recursive,
				Rules:     len(st.Rules),
			})
		}
		return info, nil
	}
	for i := range splan.Strata {
		sp := &splan.Strata[i]
		executor := "stream"
		if !sp.Streamed {
			executor = "fixpoint"
		}
		info.Strata = append(info.Strata, StratumPlan{
			Index:     sp.Index,
			Preds:     sp.Preds,
			Recursive: sp.Recursive,
			Rules:     sp.RuleCount(),
			Executor:  executor,
			Reason:    sp.Reason,
			Plans:     sp.Rules,
		})
	}
	return info, nil
}

// magicReduction renders the Magic Sets step with the query's adornment.
func (pl *Pipeline) magicReduction() string {
	return fmt.Sprintf("magic sets on %s%s: restrict evaluation to facts reachable from the bound arguments",
		pl.Query.Pred, ast.AdornmentOf(pl.Query, nil))
}

// factorReduction renders the applied factoring theorem and its predicate
// split (§4: the recursive predicate divides into independent bound and
// free parts).
func factorReduction(fr *core.FactorResult) string {
	return fmt.Sprintf("factoring (class %s): split %s into %s%v / %s%v",
		fr.Class, fr.Split.Pred,
		fr.Split.LeftName, fr.Split.Left,
		fr.Split.RightName, fr.Split.Right)
}

// Text renders the explanation as an indented plan description, the
// human-readable form `factorlog run -explain` and the REPL print.
func (e *ExplainInfo) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s for %s (adornment %s)\n", e.Strategy, e.Query, e.Adornment)
	if len(e.Candidates) > 0 {
		b.WriteString("auto planner candidates:\n")
		for _, c := range e.Candidates {
			mark := " "
			if c.Chosen {
				mark = "*"
			}
			order := "as written"
			if c.Reorder {
				order = "reordered"
			}
			if rejected(c) {
				fmt.Fprintf(&b, "  %s %-14s %s\n", mark, c.Strategy, c.Reason)
				continue
			}
			fmt.Fprintf(&b, "  %s %-14s %-10s cost=%.3g rows=%.3g rounds=%d",
				mark, c.Strategy, order, c.Cost, c.Rows, c.Rounds)
			if c.Reason != "" {
				fmt.Fprintf(&b, "  (%s)", c.Reason)
			}
			b.WriteByte('\n')
		}
	}
	if len(e.Reductions) > 0 {
		b.WriteString("reductions applied:\n")
		for _, r := range e.Reductions {
			fmt.Fprintf(&b, "  - %s\n", r)
		}
	} else {
		b.WriteString("reductions applied: none (source program evaluated directly)\n")
	}
	b.WriteString("rules:\n")
	for _, r := range e.Rules {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	if len(e.Strata) > 0 {
		b.WriteString("stratum schedule:\n")
		for _, st := range e.Strata {
			kind := "once"
			if st.Recursive {
				kind = "fixpoint"
			}
			if st.Executor != "" {
				kind += ", " + st.Executor
			}
			fmt.Fprintf(&b, "  %d: [%s] %d rules (%s)\n",
				st.Index, strings.Join(st.Preds, ","), st.Rules, kind)
			for _, rp := range st.Plans {
				for _, line := range strings.Split(strings.TrimRight(rp.Root.Tree(), "\n"), "\n") {
					fmt.Fprintf(&b, "      %s\n", line)
				}
			}
		}
	}
	return b.String()
}
