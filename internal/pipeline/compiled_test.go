package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
)

// materializable lists the strategies a Materializer serves.
func materializable() []Strategy {
	var out []Strategy
	for _, s := range AllStrategies() {
		if MaterializableStrategy(s) {
			out = append(out, s)
		}
	}
	return out
}

// chainBase is a chain e(1,2) … e(n-1,n).
func chainBase(t *testing.T, n int) []ast.Atom {
	t.Helper()
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return edgeAtoms(t, edges...)
}

// entryProgram returns the compiled program the registry entry for query
// and s builds from.
func entryProgram(t *testing.T, m *Materializer, query ast.Atom, s Strategy) *engine.CompiledProgram {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[matKey{query.CanonicalKey(), s}]
	if e == nil {
		t.Fatalf("no registry entry for %s %v", query, s)
	}
	return e.cp
}

// TestMaterializerSharesCompiledProgramRace: two goroutines serve different
// constants of one query shape through Materializer.Serve, for every
// materializable strategy, each with a build of its own. The builds run side
// by side from the one compiled program of the shape's template, and each
// answer set equals a naive evaluation of its own query. Run it under -race:
// a build that wrote the shared program would race with the other.
func TestMaterializerSharesCompiledProgramRace(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	base := chainBase(t, 40)
	for _, s := range materializable() {
		t.Run(s.String(), func(t *testing.T) {
			m, err := NewMaterializer(p, nil, base, nil, MaterializerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			queries := []ast.Atom{mustAtom(t, "t(3,Y)"), mustAtom(t, "t(17,Y)")}
			want := make([]map[string]bool, len(queries))
			for i, q := range queries {
				want[i] = scratchAnswers(t, p, q, Naive, base, 1)
			}
			var wg sync.WaitGroup
			for i, q := range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := m.Serve(context.Background(), q, s)
					if err != nil {
						t.Errorf("%s: %v", q, err)
						return
					}
					if res.Kind != "build" {
						t.Errorf("%s: refresh %q, want build", q, res.Kind)
					}
					if d := diffAnswers(res.Answers, want[i]); d != "" {
						t.Errorf("%s: materialized answers differ from naive: %s", q, d)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if a, b := entryProgram(t, m, queries[0], s), entryProgram(t, m, queries[1], s); a != b {
				t.Errorf("the two constants build from two compiled programs")
			}
		})
	}
}

// TestCompiledProgramOncePerTemplate: every constant of a shape builds from
// the compiled program its template memoized for the strategy — also after
// the registry evicted the first constant's entry — and the strategies that
// evaluate the source program share one compile of it.
func TestCompiledProgramOncePerTemplate(t *testing.T) {
	p, err := parser.ParseProgram(rlTCSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaterializer(p, nil, chainBase(t, 20), nil, MaterializerOptions{Entries: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	perStrategy := map[Strategy]*engine.CompiledProgram{}
	for _, s := range materializable() {
		for _, k := range []int{2, 5, 11} {
			q := mustAtom(t, fmt.Sprintf("t(%d,Y)", k))
			if _, err := m.Serve(ctx, q, s); err != nil {
				t.Fatalf("%s %v: %v", q, s, err)
			}
			cp := entryProgram(t, m, q, s)
			if first, ok := perStrategy[s]; !ok {
				perStrategy[s] = cp
			} else if cp != first {
				t.Errorf("%s %v builds from a compiled program of its own", q, s)
			}
		}
	}
	if perStrategy[Naive] != perStrategy[SemiNaive] {
		t.Error("naive and semi-naive compile the source program twice")
	}
	if perStrategy[Magic] == perStrategy[Factored] {
		t.Error("magic and factored share a compiled program")
	}
}

// TestCompileFailureSharedByShape: a strategy whose program does not compile
// fails for every constant of the shape with the template's one error —
// memoized, not recompiled, and never showing a template parameter —
// whether the rewrite refused (factoring the same-generation program) or
// the engine did (an unsafe rule under semi-naive).
func TestCompileFailureSharedByShape(t *testing.T) {
	cases := []struct {
		name, src string
		query     string // %d takes the constant
		s         Strategy
	}{
		{"rewrite", "sg(X,Y) :- flat(X,Y). sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).", "sg(%d,Y)", Factored},
		{"engine", "t(X,Y) :- e(X,Z).", "t(%d,Y)", SemiNaive},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := parser.ParseProgram(c.src)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMaterializer(p, nil, edgeAtoms(t, [2]int{1, 2}), nil, MaterializerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var shared error
			for _, k := range []int{41, 42, 43} {
				_, err := m.Serve(context.Background(), mustAtom(t, fmt.Sprintf(c.query, k)), c.s)
				if err == nil {
					t.Fatalf("constant %d: served, want a compile failure", k)
				}
				if errors.Is(err, engine.ErrInternal) {
					t.Fatalf("constant %d: %v is an internal error", k, err)
				}
				if strings.Contains(err.Error(), paramPrefix) {
					t.Errorf("constant %d: %q shows a template parameter", k, err)
				}
				var be boundErr
				if !errors.As(err, &be) {
					t.Fatalf("constant %d: %v is not the template's error bound to the query", k, err)
				}
				if shared == nil {
					shared = be.err
				} else if !errors.Is(err, shared) {
					t.Errorf("constant %d: %v is not the first constant's error %v", k, err, shared)
				}
			}
		})
	}
}
