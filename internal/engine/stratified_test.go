package engine_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factorlog/internal/ast"
	"factorlog/internal/engine"
	"factorlog/internal/parser"
	"factorlog/internal/pipeline"
	"factorlog/internal/workload"
)

// stratCase is one program and EDB the stratified schedule is pinned on.
type stratCase struct {
	name string
	prog *ast.Program
	load func() *engine.DB
}

// benchFamilies are the benchmark program's rule families, each over the
// workload generator its EDB is drawn with, and the queries pinned on it.
var benchFamilies = []struct {
	name, rules string
	load        func(db *engine.DB)
	queries     []string
}{
	{"chain", "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).",
		func(db *engine.DB) { workload.Chain(db, "e", 400) },
		[]string{"t(390,Y)", "t(100,Y)"}},
	{"digraph", "r(X,Y) :- g(X,Y).\nr(X,Y) :- g(X,Z), r(Z,Y).",
		func(db *engine.DB) { workload.RandomDigraph(db, "g", 1000, 3000, 1) },
		[]string{"r(X,17)", "r(17,Y)"}},
	{"tree", "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).",
		func(db *engine.DB) { workload.BalancedTree(db, 6) },
		[]string{"sg(nllllll,Y)"}},
	{"layered", workload.LayeredJoinProgram(6),
		func(db *engine.DB) { workload.LayeredJoins(db, 6, 200, 2) },
		[]string{"t1(X,Z)", "t3(X,Z)", "t6(5,Z)"}},
}

// stratCases returns every semi-naive strategy's program for every query
// testdata/**/*.dl declares, over the file's facts, and for every query of
// benchFamilies, over its generated EDB.
func stratCases(t *testing.T) []stratCase {
	t.Helper()
	var cases []stratCase
	add := func(name string, pl *pipeline.Pipeline, load func() *engine.DB) {
		for _, s := range pipeline.AllStrategies() {
			if !pipeline.MaterializableStrategy(s) || s == pipeline.Naive {
				continue // naive ignores StreamAuto (TestStreamAutoOptionValidation)
			}
			prog, _, _, err := pl.MaterializedProgram(s)
			if err != nil {
				continue // the rewrite does not apply to this query
			}
			if _, err := engine.CompileProgram(prog, engine.NewStore(), false); err != nil {
				continue // not evaluable bottom-up (pmem.dl's source program)
			}
			cases = append(cases, stratCase{name + "/" + s.String(), prog, load})
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.dl"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.dl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range append(files, corpus...) {
		if strings.HasSuffix(file, "_constraints.dl") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		u, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var constraints []ast.Rule
		if cs, err := os.ReadFile(strings.TrimSuffix(file, ".dl") + "_constraints.dl"); err == nil {
			constraints = parser.MustParseProgram(string(cs)).Rules
		}
		facts := u.Facts
		load := func() *engine.DB {
			db := engine.NewDB()
			if err := engine.LoadFacts(db, facts); err != nil {
				t.Fatal(err)
			}
			return db
		}
		rel, _ := filepath.Rel(filepath.Join("..", "..", "testdata"), file)
		for _, q := range u.Queries {
			add(fmt.Sprintf("%s/%v", rel, q), pipeline.New(u.Program(), q).WithConstraints(constraints), load)
		}
	}
	for _, f := range benchFamilies {
		f := f
		load := func() *engine.DB {
			db := engine.NewDB()
			f.load(db)
			return db
		}
		for _, q := range f.queries {
			add(f.name+"/"+q, pipeline.New(parser.MustParseProgram(f.rules), parser.MustParseAtom(q)), load)
		}
	}
	return cases
}

// stratifiedCounts are the facts, inferences and iterations of every
// stratCases case under Streaming: StreamAuto with MaxFacts 200,000, or
// budget when that budget stopped it. They were measured on the executor
// StreamAuto selected before the stratified schedule replaced it, which
// ran each non-recursive stratum once through iterator pipelines and each
// recursive one as a semi-naive fixpoint of its own — all but the factored
// r(X,17) rows, which static-argument reduction made compilable later and
// were measured on the stratified schedule itself.
var stratifiedCounts = map[string]struct {
	facts, inferences, iterations int
	budget                        bool
}{
	"example44.dl/p(5,Y)/semi-naive":                        {0, 0, 1, false},
	"example44.dl/p(5,Y)/magic":                             {1, 1, 3, false},
	"example44.dl/p(5,Y)/sup-magic":                         {1, 1, 3, false},
	"example44.dl/p(5,Y)/factored":                          {1, 1, 3, false},
	"example44.dl/p(5,Y)/factored+opt":                      {1, 1, 3, false},
	"pmem.dl/pmem(X,[x1,x2,x3,x4])/magic":                   {11, 16, 6, false},
	"pmem.dl/pmem(X,[x1,x2,x3,x4])/sup-magic":               {15, 18, 12, false},
	"pmem.dl/pmem(X,[x1,x2,x3,x4])/factored":                {12, 29, 5, false},
	"pmem.dl/pmem(X,[x1,x2,x3,x4])/factored+opt":            {9, 13, 4, false},
	"pmem.dl/pmem(X,[x1,x2,x3,x4])/counting":                {11, 17, 5, false},
	"samegen.dl/sg(a,Y)/semi-naive":                         {1, 1, 2, false},
	"samegen.dl/sg(a,Y)/magic":                              {4, 5, 5, false},
	"samegen.dl/sg(a,Y)/sup-magic":                          {5, 7, 5, false},
	"tc3.dl/t(5,Y)/semi-naive":                              {7, 14, 4, false},
	"tc3.dl/t(5,Y)/magic":                                   {13, 32, 5, false},
	"tc3.dl/t(5,Y)/sup-magic":                               {30, 61, 7, false},
	"tc3.dl/t(5,Y)/factored":                                {13, 91, 3, false},
	"tc3.dl/t(5,Y)/factored+opt":                            {10, 11, 8, false},
	"corpus/ancestor.dl/anc(mary,Y)/semi-naive":             {6, 8, 2, false},
	"corpus/ancestor.dl/anc(mary,Y)/magic":                  {12, 17, 5, false},
	"corpus/ancestor.dl/anc(mary,Y)/sup-magic":              {15, 19, 7, false},
	"corpus/ancestor.dl/anc(mary,Y)/factored":               {12, 28, 5, false},
	"corpus/ancestor.dl/anc(mary,Y)/factored+opt":           {10, 13, 4, false},
	"corpus/ancestor.dl/anc(mary,Y)/counting":               {12, 17, 5, false},
	"corpus/cycle.dl/t(b,Y)/semi-naive":                     {9, 16, 3, false},
	"corpus/cycle.dl/t(b,Y)/magic":                          {15, 26, 6, false},
	"corpus/cycle.dl/t(b,Y)/sup-magic":                      {18, 28, 9, false},
	"corpus/cycle.dl/t(b,Y)/factored":                       {12, 52, 5, false},
	"corpus/cycle.dl/t(b,Y)/factored+opt":                   {9, 13, 4, false},
	"corpus/cycle.dl/t(b,Y)/counting":                       {0, 0, 0, true},
	"corpus/lists.dl/pmem(X,[red,green,blue])/magic":        {10, 14, 6, false},
	"corpus/lists.dl/pmem(X,[red,green,blue])/sup-magic":    {13, 16, 10, false},
	"corpus/lists.dl/pmem(X,[red,green,blue])/factored":     {11, 27, 5, false},
	"corpus/lists.dl/pmem(X,[red,green,blue])/factored+opt": {8, 11, 4, false},
	"corpus/lists.dl/pmem(X,[red,green,blue])/counting":     {10, 15, 5, false},
	"corpus/nonlinear.dl/t(z,Y)/semi-naive":                 {3, 3, 3, false},
	"corpus/nonlinear.dl/t(z,Y)/magic":                      {1, 1, 3, false},
	"corpus/nonlinear.dl/t(z,Y)/sup-magic":                  {2, 5, 3, false},
	"corpus/nonlinear.dl/t(z,Y)/factored":                   {1, 1, 3, false},
	"corpus/nonlinear.dl/t(z,Y)/factored+opt":               {1, 1, 3, false},
	"corpus/onesided_payload.dl/t(k,Y)/semi-naive":          {3, 3, 4, false},
	"corpus/onesided_payload.dl/t(k,Y)/magic":               {7, 7, 6, false},
	"corpus/onesided_payload.dl/t(k,Y)/sup-magic":           {8, 11, 7, false},
	"corpus/onesided_payload.dl/t(k,Y)/factored":            {8, 10, 6, false},
	"corpus/onesided_payload.dl/t(k,Y)/factored+opt":        {7, 7, 6, false},
	"corpus/samegen_tree.dl/sg(a,Y)/semi-naive":             {5, 9, 2, false},
	"corpus/samegen_tree.dl/sg(a,Y)/magic":                  {7, 10, 5, false},
	"corpus/samegen_tree.dl/sg(a,Y)/sup-magic":              {8, 12, 5, false},
	"corpus/separable.dl/t(1,Y)/semi-naive":                 {6, 8, 4, false},
	"corpus/separable.dl/t(1,Y)/magic":                      {10, 13, 7, false},
	"corpus/separable.dl/t(1,Y)/sup-magic":                  {13, 21, 8, false},
	"corpus/separable.dl/t(1,Y)/factored":                   {10, 24, 6, false},
	"corpus/separable.dl/t(1,Y)/factored+opt":               {8, 10, 6, false},
	"corpus/twohop.dl/hop2(a,Y)/semi-naive":                 {2, 2, 1, false},
	"corpus/twohop.dl/hop2(a,Y)/magic":                      {5, 5, 3, false},
	"corpus/twohop.dl/hop2(a,Y)/sup-magic":                  {5, 5, 3, false},
	"corpus/twohop.dl/hop2(a,Y)/factored":                   {6, 7, 4, false},
	"corpus/twohop.dl/hop2(a,Y)/factored+opt":               {5, 5, 3, false},
	"corpus/twohop.dl/hop2(a,Y)/counting":                   {5, 5, 3, false},
	"chain/t(390,Y)/semi-naive":                             {79800, 80198, 399, false},
	"chain/t(390,Y)/magic":                                  {76, 95, 13, false},
	"chain/t(390,Y)/sup-magic":                              {86, 97, 31, false},
	"chain/t(390,Y)/factored":                               {41, 411, 5, false},
	"chain/t(390,Y)/factored+opt":                           {31, 41, 4, false},
	"chain/t(390,Y)/counting":                               {76, 131, 5, false},
	"chain/t(100,Y)/semi-naive":                             {79800, 80198, 399, false},
	"chain/t(100,Y)/magic":                                  {45751, 46350, 303, false},
	"chain/t(100,Y)/sup-magic":                              {46051, 46352, 901, false},
	"chain/t(100,Y)/factored":                               {1201, 360301, 5, false},
	"chain/t(100,Y)/factored+opt":                           {901, 1201, 4, false},
	"chain/t(100,Y)/counting":                               {45751, 90901, 5, false},
	"digraph/r(X,17)/semi-naive":                            {0, 0, 0, true},
	"digraph/r(X,17)/magic":                                 {3713, 15248, 14, false},
	"digraph/r(X,17)/sup-magic":                             {9553, 23932, 15, false},
	"digraph/r(X,17)/factored":                              {937, 2903, 8, false},
	"digraph/r(X,17)/factored+opt":                          {937, 2903, 8, false},
	"digraph/r(17,Y)/semi-naive":                            {0, 0, 0, true},
	"digraph/r(17,Y)/magic":                                 {0, 0, 0, true},
	"digraph/r(17,Y)/sup-magic":                             {0, 0, 0, true},
	"digraph/r(17,Y)/factored":                              {3698, 10023066, 5, false},
	"digraph/r(17,Y)/factored+opt":                          {2811, 9353, 4, false},
	"digraph/r(17,Y)/counting":                              {0, 0, 0, true},
	"tree/sg(nllllll,Y)/semi-naive":                         {2730, 5458, 2, false},
	"tree/sg(nllllll,Y)/magic":                              {102, 110, 9, false},
	"tree/sg(nllllll,Y)/sup-magic":                          {108, 112, 19, false},
	"layered/t1(X,Z)/semi-naive":                            {25400, 33200, 6, false},
	"layered/t1(X,Z)/magic":                                 {1601, 1601, 3, false},
	"layered/t1(X,Z)/sup-magic":                             {1601, 1601, 3, false},
	"layered/t1(X,Z)/counting":                              {1601, 1601, 3, false},
	"layered/t3(X,Z)/semi-naive":                            {25400, 33200, 6, false},
	"layered/t3(X,Z)/magic":                                 {8403, 8603, 7, false},
	"layered/t3(X,Z)/sup-magic":                             {8405, 8605, 9, false},
	"layered/t6(5,Z)/semi-naive":                            {25400, 33200, 6, false},
	"layered/t6(5,Z)/magic":                                 {179, 218, 13, false},
	"layered/t6(5,Z)/sup-magic":                             {184, 223, 18, false},
}

// TestStratifiedCountsPinned holds StreamAuto's exact Facts, Inferences and
// Iterations to stratifiedCounts on every case.
func TestStratifiedCountsPinned(t *testing.T) {
	cases := stratCases(t)
	if len(cases) != len(stratifiedCounts) {
		t.Errorf("%d cases, %d pinned counts", len(cases), len(stratifiedCounts))
	}
	for _, c := range cases {
		want, ok := stratifiedCounts[c.name]
		if !ok {
			t.Errorf("%s: no pinned counts", c.name)
			continue
		}
		res, err := engine.Eval(c.prog, c.load(), engine.Options{
			MaxFacts: 200_000, Streaming: engine.StreamAuto,
		})
		if want.budget {
			if !errors.Is(err, engine.ErrBudgetExceeded) {
				t.Errorf("%s: err = %v, want the facts budget to stop it", c.name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got := res.Stats
		if got.Derived != want.facts || got.Inferences != want.inferences || got.Iterations != want.iterations {
			t.Errorf("%s: %d facts, %d inferences, %d iterations; want %d, %d, %d", c.name,
				got.Derived, got.Inferences, got.Iterations, want.facts, want.inferences, want.iterations)
		}
	}
}

// TestStratifiedProbesAtMostGlobal pins that the stratified schedule's
// recursive strata join like the global loop: magic r(X,17) over the
// benchmark digraph takes no more join probes under StreamAuto than under
// StreamOff (62,677). The executor StreamAuto selected before evaluated the
// recursive strata as separate fixpoints and took 870,211, 851,914 of them
// on r_bb(X,Y) :- m_r_bb(X,Y), g(X,Z), r_bb(Z,Y).
func TestStratifiedProbesAtMostGlobal(t *testing.T) {
	prog := rewrite(t, pipeline.Magic, "r(X,17)")
	probes := map[engine.StreamMode]int{}
	for _, mode := range []engine.StreamMode{engine.StreamOff, engine.StreamAuto} {
		res, err := engine.Eval(prog, digraphDB(1), engine.Options{Trace: true, Streaming: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range res.Stats.Rules {
			probes[mode] += rs.JoinProbes
		}
		if mode == engine.StreamAuto && (res.Stats.Derived != 3713 || res.Stats.Inferences != 15248 || res.Stats.Iterations != 14) {
			t.Errorf("StreamAuto: %d facts, %d inferences, %d iterations; want 3713, 15248, 14",
				res.Stats.Derived, res.Stats.Inferences, res.Stats.Iterations)
		}
	}
	if probes[engine.StreamAuto] > probes[engine.StreamOff] {
		t.Errorf("StreamAuto took %d join probes, StreamOff %d", probes[engine.StreamAuto], probes[engine.StreamOff])
	}
	t.Logf("join probes: StreamOff %d, StreamAuto %d", probes[engine.StreamOff], probes[engine.StreamAuto])
}
