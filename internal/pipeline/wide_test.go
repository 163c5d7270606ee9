package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// wideFact renders w(x, 0, ..., 0, a, b): an arity IndexableColumns+2
// fact whose last two columns lie past the index bound.
func wideFact(x, a, b string) string {
	args := make([]string, engine.IndexableColumns+2)
	for i := range args {
		args[i] = "0"
	}
	args[0], args[len(args)-2], args[len(args)-1] = x, a, b
	return "w(" + strings.Join(args, ",") + ")"
}

// TestWideColumnsPastIndexBound joins on columns 32 and 33 of a wide
// relation. An index keyed on either column has no bit of its own in the
// column mask, so a probe of column 33 once read column 32's index and
// answered q33 with q32's row. The compiler now matches such columns
// residually; every bottom-up strategy, the materialized path through an
// assert and a retract, and tabled resolution must agree with the
// intended answers.
func TestWideColumnsPastIndexBound(t *testing.T) {
	zs := make([]string, engine.IndexableColumns-1)
	for i := range zs {
		zs[i] = fmt.Sprintf("Z%d", i+1)
	}
	z := strings.Join(zs, ",")
	prog := parser.MustParseProgram(fmt.Sprintf(`
		q32(X) :- k(V), w(X,%s,V,W).
		q33(X) :- k(V), w(X,%s,U,V).`, z, z))
	base := []ast.Atom{mustAtom(t, wideFact("1", "5", "7")), mustAtom(t, wideFact("2", "7", "5")), mustAtom(t, "k(5)")}
	want := map[string][]string{"q32(X)": {"(1)"}, "q33(X)": {"(2)"}}

	for q, answers := range want {
		for _, s := range []Strategy{SemiNaive, Naive, Magic, Tabled} {
			db := engine.NewDB()
			if err := engine.LoadFacts(db, base); err != nil {
				t.Fatal(err)
			}
			res, err := New(prog, mustAtom(t, q)).Run(s, db, engine.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", q, s, err)
			}
			if got := SortedAnswers(res); !reflect.DeepEqual(got, answers) {
				t.Errorf("%s %v: %v, want %v", q, s, got, answers)
			}
		}
	}

	m, err := NewMaterializer(prog, nil, base, nil, MaterializerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, want map[string][]string) {
		t.Helper()
		for q, answers := range want {
			for _, s := range []Strategy{SemiNaive, Magic} {
				res, err := m.Serve(context.Background(), mustAtom(t, q), s)
				if err != nil {
					t.Fatalf("%s: %s %v: %v", stage, q, s, err)
				}
				if got := SortedAnswers(&RunResult{Answers: res.Answers}); !reflect.DeepEqual(got, answers) {
					t.Errorf("%s: materialized %s %v: %v, want %v", stage, q, s, got, answers)
				}
			}
		}
	}
	check("build", want)
	added := mustAtom(t, wideFact("3", "5", "5"))
	if _, err := m.Apply([]ast.Atom{added}, nil); err != nil {
		t.Fatal(err)
	}
	check("assert", map[string][]string{"q32(X)": {"(1)", "(3)"}, "q33(X)": {"(2)", "(3)"}})
	if _, err := m.Apply(nil, []ast.Atom{added, base[0]}); err != nil {
		t.Fatal(err)
	}
	check("retract", map[string][]string{"q32(X)": {}, "q33(X)": {"(2)"}})
}
