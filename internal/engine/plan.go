package engine

import (
	"fmt"

	"factorlog/internal/ast"
)

// JoinStep is one body literal of a rule's join as runner.join executes it:
// a scan of the literal's relation, or a probe of the relation's index on
// the columns bound before the literal runs.
type JoinStep struct {
	// Literal is the body atom as written.
	Literal string `json:"literal"`
	// Probe lists the index key columns, ascending; empty for a scan.
	Probe []int `json:"probe,omitempty"`
	// Keys says what keys each probe column, in column order: a constant
	// ("σ col0=5") or a variable an earlier literal bound ("col1=Y").
	Keys []string `json:"keys,omitempty"`
}

// RulePlan is one compiled rule's join in the order every non-delta pass
// runs it (a semi-naive delta pass may lead with its delta instead; see
// runner.passOrder).
type RulePlan struct {
	// Rule is the rule's position in the program; Source its text.
	Rule   int        `json:"rule"`
	Source string     `json:"rule_src"`
	Steps  []JoinStep `json:"steps"`
}

// PlanRules compiles p and describes the join of each rule, indexed by rule
// position, with the bodies as written (Options.ReorderJoins off).
func PlanRules(p *ast.Program) ([]RulePlan, error) {
	rules, err := compileRulesGuarded(p, NewStore(), false)
	if err != nil {
		return nil, err
	}
	plans := make([]RulePlan, len(rules))
	for i, r := range rules {
		plans[i] = RulePlan{Rule: i, Source: r.label(), Steps: make([]JoinStep, len(r.body))}
		for li, l := range r.body {
			atom := r.src.Body[li]
			step := JoinStep{Literal: atom.String(), Probe: l.boundCols}
			for _, c := range l.boundCols {
				if t := atom.Args[c]; t.Ground() {
					step.Keys = append(step.Keys, fmt.Sprintf("σ col%d=%s", c, t))
				} else {
					step.Keys = append(step.Keys, fmt.Sprintf("col%d=%s", c, t))
				}
			}
			plans[i].Steps[li] = step
		}
	}
	return plans, nil
}
