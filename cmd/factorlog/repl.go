package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"factorlog"
	"factorlog/internal/ast"
	"factorlog/internal/parser"
)

// repl runs an interactive session: rules and ground facts accumulate,
// queries evaluate immediately under the current strategy.
//
//	> e(1, 2).
//	> e(2, 3).
//	> t(X, Y) :- e(X, Y).
//	> t(X, Y) :- e(X, W), t(W, Y).
//	> ?- t(1, Y).
//	(2) (3)
//	> :strategy magic
//	> :classify ?- t(1, Y).
//	factorable: selection-pushing
//
// Commands: :strategy NAME, :profile, :stream, :stats, :list,
// :assert f., :retract f., :classify ?- q., :explain ?- q., :analyze ?- q.,
// :reset, :help, :quit.
//
// :assert and :retract mutate the session's fact set in place and advance a
// session epoch, mirroring the server's POST /facts model (the REPL
// re-evaluates each query over the current clause set; the incremental
// delta machinery itself lives behind factorlogd and System.Materialize).
func repl(in io.Reader, out io.Writer) error {
	var clauses []string
	strategy := factorlog.FactoredOptimized
	profiling := false
	budget := 5_000_000
	workers := 1
	streaming := false
	var epoch int64
	var last *factorlog.Result

	build := func(query string) (*factorlog.System, error) {
		src := strings.Join(clauses, "\n") + "\n" + query
		return factorlog.Load(src)
	}

	fmt.Fprintln(out, "factorlog repl — enter clauses, ?- queries, or :help")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(out, "> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue

		case line == ":quit" || line == ":q":
			return nil

		case line == ":help":
			fmt.Fprintln(out, "  <clause>.            add a rule or ground fact")
			fmt.Fprintln(out, "  ?- atom.             evaluate a query")
			fmt.Fprintln(out, "  :strategy NAME       switch strategy, 'auto' = cost-based pick (current:", strategy, ")")
			fmt.Fprintln(out, "  :profile             toggle per-query profiling (span tree, rule table)")
			fmt.Fprintln(out, "  :stats               show the last query's profile")
			fmt.Fprintln(out, "  :budget N            cap derived facts per query (current:", budget, ")")
			fmt.Fprintln(out, "  :workers N           evaluation workers, >1 = parallel (current:", workers, ")")
			fmt.Fprintln(out, "  :stream              toggle the streaming executor for non-recursive strata")
			fmt.Fprintln(out, "  :assert fact.        add a ground fact and advance the session epoch")
			fmt.Fprintln(out, "  :retract fact.       remove a ground fact (no-op if absent)")
			fmt.Fprintln(out, "  :classify ?- atom.   which factorability theorem applies")
			fmt.Fprintln(out, "  :explain ?- atom.    show the transformed program")
			fmt.Fprintln(out, "  :analyze ?- atom.    evaluate with the plan description and span tree")
			fmt.Fprintln(out, "  :list                show accumulated clauses")
			fmt.Fprintln(out, "  :reset               drop all clauses")
			fmt.Fprintln(out, "  :quit                leave")

		case line == ":list":
			for _, c := range clauses {
				fmt.Fprintln(out, c)
			}

		case line == ":reset":
			clauses = nil
			last = nil
			epoch = 0
			fmt.Fprintln(out, "cleared")

		case strings.HasPrefix(line, ":assert"):
			atom, err := parseGroundFact(strings.TrimPrefix(line, ":assert"))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if factIndex(clauses, atom) >= 0 {
				fmt.Fprintln(out, "no-op: already present (epoch", fmt.Sprint(epoch)+")")
				continue
			}
			clauses = append(clauses, atom.String()+".")
			epoch++
			fmt.Fprintln(out, "asserted", atom.String(), "(epoch", fmt.Sprint(epoch)+")")

		case strings.HasPrefix(line, ":retract"):
			atom, err := parseGroundFact(strings.TrimPrefix(line, ":retract"))
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			i := factIndex(clauses, atom)
			if i < 0 {
				fmt.Fprintln(out, "no-op: not present (epoch", fmt.Sprint(epoch)+")")
				continue
			}
			clauses = append(clauses[:i], clauses[i+1:]...)
			epoch++
			fmt.Fprintln(out, "retracted", atom.String(), "(epoch", fmt.Sprint(epoch)+")")

		case line == ":stream":
			streaming = !streaming
			if streaming {
				fmt.Fprintln(out, "streaming on")
			} else {
				fmt.Fprintln(out, "streaming off")
			}

		case line == ":profile":
			profiling = !profiling
			if profiling {
				fmt.Fprintln(out, "profiling on")
			} else {
				fmt.Fprintln(out, "profiling off")
			}

		case line == ":stats":
			if last == nil {
				fmt.Fprintln(out, "no query evaluated yet")
				continue
			}
			fmt.Fprintln(out, factorlog.FormatResult(last))
			fmt.Fprint(out, last.Profile())

		case strings.HasPrefix(line, ":budget"):
			var n int
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, ":budget"), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintln(out, "error: :budget needs a positive fact count")
				continue
			}
			budget = n
			fmt.Fprintln(out, "budget:", budget)

		case strings.HasPrefix(line, ":workers"):
			var n int
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, ":workers"), "%d", &n); err != nil || n <= 0 {
				fmt.Fprintln(out, "error: :workers needs a positive worker count")
				continue
			}
			workers = n
			fmt.Fprintln(out, "workers:", workers)

		case strings.HasPrefix(line, ":strategy"):
			name := strings.TrimSpace(strings.TrimPrefix(line, ":strategy"))
			s, err := factorlog.ParseStrategy(name)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			strategy = s
			fmt.Fprintln(out, "strategy:", strategy)

		case strings.HasPrefix(line, ":classify"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ":classify"))
			sys, err := build(q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			class, err := sys.Classify()
			if err != nil {
				fmt.Fprintln(out, "not factorable:", err)
				continue
			}
			fmt.Fprintln(out, "factorable:", class)

		case strings.HasPrefix(line, ":analyze"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ":analyze"))
			sys, err := build(q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			info, err := sys.Plan(strategy)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			fmt.Fprint(out, info.Text())
			sys.WithBudget(0, budget).WithWorkers(workers).WithStreaming(streaming).WithTrace(true)
			res, err := sys.Run(strategy, sys.NewDB())
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			last = res
			if len(res.Answers) == 0 {
				fmt.Fprintln(out, "no answers")
			} else {
				fmt.Fprintln(out, strings.Join(res.Answers, " "))
			}
			fmt.Fprint(out, res.Trace.Profile())

		case strings.HasPrefix(line, ":explain"):
			q := strings.TrimSpace(strings.TrimPrefix(line, ":explain"))
			sys, err := build(q)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			ex, err := sys.Explain(strategy)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if ex.Class != "" {
				fmt.Fprintln(out, "% class:", ex.Class)
			}
			fmt.Fprint(out, ex.Program)

		case strings.HasPrefix(line, ":"):
			fmt.Fprintln(out, "unknown command (try :help)")

		case strings.HasPrefix(line, "?-"):
			sys, err := build(line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			sys.WithBudget(0, budget).WithTrace(profiling).WithWorkers(workers).WithStreaming(streaming)
			res, err := sys.Run(strategy, sys.NewDB())
			if errors.Is(err, factorlog.ErrBudgetExceeded) {
				fmt.Fprintln(out, "budget exceeded:", err)
				continue
			}
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			last = res
			if res.AutoPicked {
				fmt.Fprintln(out, "auto picked", res.Strategy)
			}
			if len(res.Answers) == 0 {
				fmt.Fprintln(out, "no answers")
			} else {
				fmt.Fprintln(out, strings.Join(res.Answers, " "))
			}
			if profiling {
				fmt.Fprint(out, res.Profile())
			}

		default:
			// Parse the line on its own and store each clause separately, so
			// a multi-clause line still leaves every fact individually
			// addressable by :retract and the duplicate check in :assert.
			unit, err := parser.Parse(line)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				continue
			}
			if len(unit.Queries) > 0 {
				fmt.Fprintln(out, "error: queries go on their own line (?- atom.)")
				continue
			}
			for _, r := range unit.Rules {
				clauses = append(clauses, r.String())
			}
			for _, f := range unit.Facts {
				clauses = append(clauses, f.String()+".")
			}
		}
	}
}

// parseGroundFact parses a :assert/:retract operand: a single ground atom,
// trailing dot optional. Mirrors the server's POST /facts validation.
func parseGroundFact(src string) (ast.Atom, error) {
	src = strings.TrimSuffix(strings.TrimSpace(src), ".")
	atom, err := parser.ParseAtom(src)
	if err != nil {
		return ast.Atom{}, err
	}
	if !atom.Ground() {
		return ast.Atom{}, fmt.Errorf("fact must be ground: %s", atom)
	}
	return atom, nil
}

// factIndex finds atom among the accumulated clauses, comparing parsed
// renderings so ":retract e(1, 2)" matches a stored "e(1,2).".
func factIndex(clauses []string, atom ast.Atom) int {
	want := atom.String()
	for i, c := range clauses {
		got, err := parser.ParseAtom(strings.TrimSuffix(strings.TrimSpace(c), "."))
		if err != nil {
			continue // a rule, not a fact
		}
		if got.String() == want {
			return i
		}
	}
	return -1
}
