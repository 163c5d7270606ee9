package main

import (
	"strings"
	"testing"
)

func runRepl(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	if err := repl(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestReplQueryFlow(t *testing.T) {
	out := runRepl(t, `
e(1, 2).
e(2, 3).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
?- t(1, Y).
:quit
`)
	if !strings.Contains(out, "(2) (3)") {
		t.Errorf("query answers missing:\n%s", out)
	}
}

func TestReplStrategySwitch(t *testing.T) {
	out := runRepl(t, `
:strategy magic
e(a, b).
t(X, Y) :- e(X, Y).
?- t(a, Y).
:strategy warpdrive
:quit
`)
	if !strings.Contains(out, "strategy: magic") {
		t.Errorf("strategy switch missing:\n%s", out)
	}
	if !strings.Contains(out, "(b)") {
		t.Errorf("magic answers missing:\n%s", out)
	}
	if !strings.Contains(out, "unknown strategy") {
		t.Errorf("bad strategy not reported:\n%s", out)
	}
}

func TestReplStreamToggle(t *testing.T) {
	out := runRepl(t, `
:stream
e(1, 2).
e(2, 3).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
?- t(1, Y).
:stream
:quit
`)
	if !strings.Contains(out, "streaming on") || !strings.Contains(out, "streaming off") {
		t.Errorf("stream toggle missing:\n%s", out)
	}
	if !strings.Contains(out, "(2) (3)") {
		t.Errorf("streamed answers missing:\n%s", out)
	}
}

func TestReplAnalyzeShowsOperatorTree(t *testing.T) {
	out := runRepl(t, `
:stream
e(1, 2).
t(X, Y) :- e(X, Y).
:analyze ?- t(1, Y).
:quit
`)
	// The plan description renders each stratum's rule joins and the span
	// tree follows the evaluated query.
	for _, want := range []string{"stratum schedule", "stream", "scan m_t_bf(X)", "probe e(X,Y) on col0=X", "eval"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in :analyze output:\n%s", want, out)
		}
	}
}

func TestReplClassifyAndExplain(t *testing.T) {
	out := runRepl(t, `
t(X, Y) :- t(X, W), e(W, Y).
t(X, Y) :- e(X, Y).
:classify ?- t(1, Y).
:explain ?- t(1, Y).
:quit
`)
	if !strings.Contains(out, "factorable: selection-pushing") {
		t.Errorf("classify missing:\n%s", out)
	}
	if !strings.Contains(out, "% class: selection-pushing") {
		t.Errorf("explain missing:\n%s", out)
	}
	if !strings.Contains(out, "ft(") {
		t.Errorf("explained program missing factored predicate:\n%s", out)
	}
}

func TestReplListResetHelp(t *testing.T) {
	out := runRepl(t, `
e(1, 2).
:list
:reset
:list
:help
:bogus
:quit
`)
	// Clauses are re-rendered from the parsed form, so :list shows the
	// canonical spelling regardless of input spacing.
	if !strings.Contains(out, "e(1,2).") {
		t.Errorf("list missing:\n%s", out)
	}
	if !strings.Contains(out, "cleared") {
		t.Errorf("reset missing:\n%s", out)
	}
	if !strings.Contains(out, ":strategy NAME") {
		t.Errorf("help missing:\n%s", out)
	}
	if !strings.Contains(out, "unknown command") {
		t.Errorf("bogus command not reported:\n%s", out)
	}
}

func TestReplProfileAndStats(t *testing.T) {
	out := runRepl(t, `
e(1, 2).
e(2, 3).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
:stats
:profile
?- t(1, Y).
:stats
:profile
:quit
`)
	if !strings.Contains(out, "no query evaluated yet") {
		t.Errorf(":stats before any query:\n%s", out)
	}
	if !strings.Contains(out, "profiling on") || !strings.Contains(out, "profiling off") {
		t.Errorf("profile toggle missing:\n%s", out)
	}
	for _, want := range []string{"trace q-", "eval", "round 0", "rule #", "firings"} {
		if !strings.Contains(out, want) {
			t.Errorf("profiled query missing %q:\n%s", want, out)
		}
	}
}

func TestReplBudgetExceeded(t *testing.T) {
	out := runRepl(t, `
nat(z).
nat(s(X)) :- nat(X).
:strategy semi-naive
:budget 0
:budget 1000
?- nat(W).
:quit
`)
	if !strings.Contains(out, ":budget needs a positive fact count") {
		t.Errorf("bad budget accepted:\n%s", out)
	}
	if !strings.Contains(out, "budget: 1000") {
		t.Errorf("budget switch missing:\n%s", out)
	}
	if !strings.Contains(out, "budget exceeded") {
		t.Errorf("budget stop not distinguished:\n%s", out)
	}
}

func TestReplErrors(t *testing.T) {
	out := runRepl(t, `
t(X :- e(X).
?- garbage(.
?- nodefs(X).
:quit
`)
	if strings.Count(out, "error:") < 2 {
		t.Errorf("parse errors not reported:\n%s", out)
	}
	// Query on a predicate with no rules: reported, not crashed.
	if !strings.Contains(out, "no answers") && !strings.Contains(out, "error:") {
		t.Errorf("undefined query mishandled:\n%s", out)
	}
}

func TestReplNoAnswers(t *testing.T) {
	out := runRepl(t, `
t(X, Y) :- e(X, Y).
e(1, 2).
?- t(9, Y).
:quit
`)
	if !strings.Contains(out, "no answers") {
		t.Errorf("empty result missing:\n%s", out)
	}
}

func TestReplEOF(t *testing.T) {
	// EOF without :quit terminates cleanly.
	out := runRepl(t, "e(1, 2).\n")
	if !strings.Contains(out, "> ") {
		t.Errorf("prompt missing:\n%s", out)
	}
}

func TestReplAnalyze(t *testing.T) {
	out := runRepl(t, `
e(1, 2).
e(2, 3).
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
:analyze ?- t(1, Y).
:quit
`)
	for _, want := range []string{"plan factored+opt", "(2) (3)", "trace q-", "eval", "round"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in :analyze output:\n%s", want, out)
		}
	}
}

func TestReplAssertRetract(t *testing.T) {
	out := runRepl(t, `
t(X, Y) :- e(X, Y).
t(X, Y) :- e(X, W), t(W, Y).
:assert e(1, 2).
:assert e(2, 3).
?- t(1, Y).
:retract e(1, 2).
?- t(1, Y).
:retract e(1, 2).
:assert e(2, 3)
:quit
`)
	if !strings.Contains(out, "asserted e(1,2) (epoch 1)") {
		t.Errorf("assert echo missing:\n%s", out)
	}
	if !strings.Contains(out, "(2) (3)") {
		t.Errorf("answers after asserts missing:\n%s", out)
	}
	if !strings.Contains(out, "retracted e(1,2) (epoch 3)") {
		t.Errorf("retract echo missing:\n%s", out)
	}
	if !strings.Contains(out, "no answers") {
		t.Errorf("post-retract query should have no answers:\n%s", out)
	}
	if !strings.Contains(out, "no-op: not present (epoch 3)") {
		t.Errorf("double retract should be a no-op:\n%s", out)
	}
	if !strings.Contains(out, "no-op: already present (epoch 3)") {
		t.Errorf("duplicate assert should be a no-op:\n%s", out)
	}
}

func TestReplRetractFromMultiClauseLine(t *testing.T) {
	// Clauses entered several-per-line are stored individually, so a fact
	// from the middle of a line is still addressable by :retract.
	out := runRepl(t, `
t(X,Y) :- e(X,Y). t(X,Y) :- e(X,W), t(W,Y). e(1,2). e(2,3).
:retract e(1,2).
?- t(1, Y).
:assert e(2, 3).
e(4,5). ?- t(4,Y).
:quit
`)
	if !strings.Contains(out, "retracted e(1,2) (epoch 1)") {
		t.Errorf("retract of mid-line fact missing:\n%s", out)
	}
	if !strings.Contains(out, "no answers") {
		t.Errorf("post-retract query should have no answers:\n%s", out)
	}
	if !strings.Contains(out, "no-op: already present (epoch 1)") {
		t.Errorf("duplicate assert of mid-line fact should be a no-op:\n%s", out)
	}
	if !strings.Contains(out, "queries go on their own line") {
		t.Errorf("mixed clause+query line should be rejected:\n%s", out)
	}
}

func TestReplAssertValidation(t *testing.T) {
	out := runRepl(t, `
:assert e(X, 1).
:assert not an atom (
:retract e(Y).
:quit
`)
	if got := strings.Count(out, "error:"); got != 3 {
		t.Errorf("want 3 errors, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "must be ground") {
		t.Errorf("groundness error missing:\n%s", out)
	}
}
