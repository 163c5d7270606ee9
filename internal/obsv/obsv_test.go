package obsv

import (
	"strings"
	"testing"
	"time"
)

func TestRuleTable(t *testing.T) {
	rules := []RuleStats{
		{Index: 0, Rule: "t(X,Y) :- e(X,Y).", Firings: 3, JoinProbes: 40, TuplesMatched: 12, TuplesDerived: 9, Duplicates: 3},
		{Index: 1, Rule: "t(X,Y) :- e(X,W), t(W,Y).", Firings: 1000000, JoinProbes: 123456789},
	}
	out := RuleTable(rules)
	for _, want := range []string{"firings", "probes", "123456789", "t(X,Y) :- e(X,Y)."} {
		if !strings.Contains(out, want) {
			t.Errorf("RuleTable missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Errorf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(1499 * time.Nanosecond); got != "1µs" {
		t.Errorf("FormatDuration = %q", got)
	}
	if got := FormatDuration(3 * time.Second); got != "3s" {
		t.Errorf("FormatDuration = %q", got)
	}
}
