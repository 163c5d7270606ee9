package work

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
)

// Conns is the number of closed-loop connections every workload drives —
// the sandbox has two cores, and the load generator never opens more
// connections than cores.
const Conns = 2

// Workload names. They are frozen: later issues cite them.
const (
	ColdBound    = "cold_bound"
	HotHit       = "hot_hit"
	LiveMutation = "live_mutation"
	ScratchEval  = "scratch_eval"
)

// Names lists the workloads in reporting order.
var Names = []string{ColdBound, HotHit, LiveMutation, ScratchEval}

// Request is one HTTP operation with the answer the oracle expects.
type Request struct {
	// Class groups operations inside a workload for per-class latency: the
	// strategy asked for (auto, magic, factored_opt, sup_magic, counting),
	// an executor option (stream, workers2, tabled), or the mutation kind
	// (assert, retract).
	Class string

	// A query: GET Target, expecting Want.
	Query    string
	Strategy string // "" = the server's default (magic)
	Workers  int    // 0 = the server's default (1)
	Stream   bool
	Target   string // path and query string
	Want     Expected

	// A mutation: POST Body to /facts. UserBytes counts the fact text the
	// batch carries, the denominator of wal_bytes_per_user_byte.
	Assert, Retract []string
	Body            []byte
	UserBytes       int

	// CycleStart marks where a connection may stop when time is up: a
	// mutation and the queries that read it back stay together.
	CycleStart bool
}

// IsFacts reports whether the request is a POST /facts batch.
func (r *Request) IsFacts() bool { return r.Body != nil }

// Workload is one traffic mix: how to start the server, what to run before
// measuring, and each connection's fixed operation list.
type Workload struct {
	Name string
	// Program is mixed.dl: the rules and the base facts every operation
	// list starts from.
	Program string
	// Flags are factorlogd's flags beyond -addr and -program. Durable adds
	// -wal-dir <tmp>, which only the harness can name.
	Flags   []string
	Durable bool
	// Warmup runs once per set-up, on one connection, before the measured
	// phase: it builds what the workload expects to find built.
	Warmup []*Request
	// Ops holds each connection's operations. A run executes a prefix: it
	// stops at the first CycleStart after its time is up.
	Ops [Conns][]*Request
}

func query(class, q, strategy string, want Expected) *Request {
	r := &Request{Class: class, Query: q, Strategy: strategy, Want: want, CycleStart: true}
	r.finish()
	return r
}

// finish renders the request's HTTP target from its fields.
func (r *Request) finish() {
	v := url.Values{"q": {r.Query}}
	if r.Strategy != "" {
		v.Set("strategy", r.Strategy)
	}
	if r.Workers > 0 {
		v.Set("workers", strconv.Itoa(r.Workers))
	}
	if r.Stream {
		v.Set("stream", "1")
	}
	r.Target = "/query?" + v.Encode()
}

func facts(assert, retract []string) *Request {
	r := &Request{Class: "assert", Assert: assert, Retract: retract, CycleStart: true}
	if len(retract) > 0 {
		r.Class = "retract"
	}
	for _, f := range append(append([]string(nil), assert...), retract...) {
		r.UserBytes += len(f)
	}
	body, err := json.Marshal(struct {
		Assert  []string `json:"assert,omitempty"`
		Retract []string `json:"retract,omitempty"`
	}{assert, retract})
	if err != nil {
		panic(err) // strings always marshal
	}
	r.Body = body
	return r
}

// perm returns a seeded walk over 0..n-1 that visits every value once and
// spreads any run of consecutive picks evenly over the range (a Weyl
// sequence: offset + i·stride mod n, stride coprime to n near n/φ). Every
// window of a workload therefore sees the same mix of cheap and expensive
// constants, whatever the seed.
func perm(n int, r *rand.Rand) func(i int) int {
	off, stride := r.Intn(n), Stride(n, r.Intn(1+n/50))
	return func(i int) int { return (off + i*stride) % n }
}

// Stride returns a step coprime to n, at or just above n/φ + jitter: walking
// 0..n-1 by it visits every value once, and any prefix of the walk is spread
// evenly over the range.
func Stride(n, jitter int) int {
	stride := max(1, int(float64(n)*0.6180339887)+jitter)
	for gcd(stride, n) != 1 {
		stride++
	}
	return stride
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Generate builds the named workload over a fresh EDB. blocks scales the
// operation lists (see each generator); the same (name, sizes, seed,
// blocks) always yields the same lists.
func Generate(name string, sz Sizes, seed int64, blocks int) (*Workload, error) {
	d := NewEDB(sz, seed)
	program := d.Program() // before the mutation generator advances d
	// Each workload draws from its own stream, so adding operations to one
	// never shifts another's.
	r := rand.New(rand.NewSource(seed*7919 + int64(len(name))))
	var w *Workload
	switch name {
	case ColdBound:
		w = coldBound(d, r, blocks)
	case HotHit:
		w = hotHit(d, r, blocks)
	case LiveMutation:
		w = liveMutation(d, r, blocks)
	case ScratchEval:
		w = scratchEval(d, r, blocks)
	default:
		return nil, fmt.Errorf("unknown workload %q (one of: %s)", name, strings.Join(Names, ", "))
	}
	w.Name, w.Program = name, program
	return w, nil
}

// deal splits one operation list over the connections, alternating, so the
// connections never share a constant.
func deal(ops []*Request) (out [Conns][]*Request) {
	for i, op := range ops {
		out[i%Conns] = append(out[i%Conns], op)
	}
	return out
}

// shapeSource hands out never-repeating query shapes per family.
type shapeSource struct {
	d                        *EDB
	tY, tSmall, rY, rX, j, s func(int) int
	nT, nS, nRY, nRX, nJ, nG int
	nodes                    []string
}

// smallReach bounds the chain reach handed to the strategies that are
// quadratic in it (magic, sup-magic and counting over right-linear t).
func smallReach(sz Sizes) int { return sz.ChainN * 3 / 40 }

func newShapeSource(d *EDB, r *rand.Rand) *shapeSource {
	sz := d.Sizes
	nodes := d.TreeNodes()[1:] // the root has no same-generation peers
	return &shapeSource{d: d, nodes: nodes,
		tY:     perm(sz.ChainN-1-smallReach(sz), r),
		tSmall: perm(smallReach(sz)-2, r),
		rY:     perm(sz.GraphN, r),
		rX:     perm(sz.GraphN, r),
		j:      perm(sz.JoinN, r),
		s:      perm(len(nodes), r),
	}
}

// next returns the family's next unseen query and its answers.
func (s *shapeSource) next(family string) (string, Expected) {
	sz := s.d.Sizes
	switch family {
	case "tY": // reach from smallReach up to the whole chain
		k := 1 + s.tY(s.nT)
		s.nT++
		return fmt.Sprintf("t(%d,Y)", k), DigestInts(Reach(s.d.E, k))
	case "tSmall": // reach 2..smallReach
		k := sz.ChainN - 2 - s.tSmall(s.nS)
		s.nS++
		return fmt.Sprintf("t(%d,Y)", k), DigestInts(Reach(s.d.E, k))
	case "rY":
		k := s.rY(s.nRY)
		s.nRY++
		return fmt.Sprintf("r(%d,Y)", k), DigestInts(Reach(s.d.G, k))
	case "rX":
		k := s.rX(s.nRX)
		s.nRX++
		return fmt.Sprintf("r(X,%d)", k), DigestInts(ReachBack(s.d.G, k))
	case "sg":
		x := s.nodes[s.s(s.nG)]
		s.nG++
		return fmt.Sprintf("sg(%s,Y)", x), DigestNames(s.d.SameGen(x))
	case "j6":
		k := s.j(s.nJ)
		s.nJ++
		return fmt.Sprintf("t%d(%d,Z)", JoinStages, k), DigestInts(s.d.Join(JoinStages, k))
	}
	panic("unknown family " + family)
}

// coldBound: every query binds a constant the server has never seen, so
// every operation pays plan search, the rewrite chain and a materialization
// build. One block is 20 operations in the issue's proportions: 14 auto,
// 2 magic, 2 factored+opt, 1 sup-magic, 1 counting; the strategies that are
// quadratic over the chain only ever get small-reach constants, and each
// family only the strategies that compile for it.
func coldBound(d *EDB, r *rand.Rand, blocks int) *Workload {
	src := newShapeSource(d, r)
	autoFam := []string{"tY", "rY", "rX", "sg", "j6"}
	magicFam := [][2]string{{"tSmall", "sg"}, {"rX", "j6"}}
	supFam := []string{"sg", "j6", "rX", "tSmall"}
	var ops []*Request
	for b := 0; b < blocks; b++ {
		type slot struct{ class, strategy, family string }
		var block []slot
		for i := 0; i < 14; i++ {
			block = append(block, slot{"auto", "auto", autoFam[(i+b)%len(autoFam)]})
		}
		for _, f := range magicFam[b%2] {
			block = append(block, slot{"magic", "magic", f})
		}
		block = append(block,
			slot{"factored_opt", "factored+opt", "tY"},
			slot{"factored_opt", "factored+opt", "rY"},
			slot{"sup_magic", "sup-magic", supFam[b%len(supFam)]},
			slot{"counting", "counting", "tSmall"})
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, s := range block {
			q, want := src.next(s.family)
			ops = append(ops, query(s.class, q, s.strategy, want))
		}
	}
	w := &Workload{Ops: deal(ops)}
	// One throwaway query per family, so lazy start-up costs are paid before
	// the first measured operation.
	for _, f := range autoFam {
		q, want := src.next(f)
		w.Warmup = append(w.Warmup, query("auto", q, "auto", want))
	}
	return w
}

// wellConnected walks ks and returns the first n nodes whose closure (forward
// or backward) covers at least half the digraph. A random digraph has one
// giant component and a fringe of nodes that reach, or are reached by, almost
// nothing; repeated shapes stay off the fringe so that a workload costs the
// same whichever nodes the seed picks.
func wellConnected(d *EDB, ks func(int) int, n int, closure func(Graph, int) []int) []int {
	// A digraph too sparse to have such nodes gets the best it has.
	for least := d.Sizes.GraphN / 2; ; least /= 2 {
		var out []int
		for i := 0; len(out) < n && i < d.Sizes.GraphN; i++ {
			if k := ks(i); len(closure(d.G, k)) >= least {
				out = append(out, k)
			}
		}
		if len(out) == n || least == 0 {
			return out
		}
	}
}

// closureStrategy alternates hot_hit's closures between a fixed strategy
// and the planner, so the planner's per-request work is on the hot path too.
func closureStrategy(i int) (strategy, class string) {
	if i%2 == 1 {
		return "auto", "auto"
	}
	return "factored+opt", "factored_opt"
}

// hotShapes are the 32 shapes of hot_hit — fewer than -mat-entries 64, so
// after warm-up every operation is a materialization hit. Answer counts
// span 10..1000; the seed moves the constants, not the sizes.
func hotShapes(d *EDB, r *rand.Rand) []*Request {
	sz := d.Sizes
	var out []*Request
	add := func(class, q, strategy string, want Expected) {
		out = append(out, query(class, q, strategy, want))
	}
	// Chain: a ladder of reaches up to a quarter of the chain.
	for i := 0; i < 8; i++ {
		reach := sz.ChainN/4*(i+1)/8 - r.Intn(1+sz.ChainN/400)
		k := sz.ChainN - reach
		strategy, class := closureStrategy(i)
		add(class, fmt.Sprintf("t(%d,Y)", k), strategy, DigestInts(Reach(d.E, k)))
	}
	// Digraph: forward closures (about the giant component each).
	for i, k := range wellConnected(d, perm(sz.GraphN, r), 8, Reach) {
		strategy, class := closureStrategy(i)
		add(class, fmt.Sprintf("r(%d,Y)", k), strategy, DigestInts(Reach(d.G, k)))
	}
	// Same generation: leaves and the levels just above them.
	nodes := d.TreeNodes()
	for i := 0; i < 8; i++ {
		depth := sz.TreeDepth - i%4
		level := nodes[1<<depth-1 : 1<<(depth+1)-1]
		x := level[r.Intn(len(level))]
		add("magic", fmt.Sprintf("sg(%s,Y)", x), "", DigestNames(d.SameGen(x)))
	}
	// Layered join, one bound key each.
	js := perm(sz.JoinN, r)
	for i := 0; i < 8; i++ {
		add("magic", fmt.Sprintf("t%d(%d,Z)", JoinStages, js(i)), "", DigestInts(d.Join(JoinStages, js(i))))
	}
	return out
}

// rounds appends blocks seeded permutations of shapes: every window of
// len(shapes) operations holds each shape exactly once.
func rounds(shapes []*Request, r *rand.Rand, blocks int) []*Request {
	ops := make([]*Request, 0, blocks*len(shapes))
	for b := 0; b < blocks; b++ {
		for _, i := range r.Perm(len(shapes)) {
			ops = append(ops, shapes[i])
		}
	}
	return ops
}

// hotHit: rewrite, planner and evaluator do nothing; admission, decode, the
// materialization hit, answer sort and JSON encoding do everything. One
// block is one pass over the 32 shapes.
func hotHit(d *EDB, r *rand.Rand, blocks int) *Workload {
	shapes := hotShapes(d, r)
	return &Workload{Warmup: shapes, Ops: deal(rounds(shapes, r, blocks))}
}

// scratchShapes are the 24 shapes of scratch_eval. With -materialize=false
// each is evaluated from scratch on every request: the per-request base
// copy, the fixpoint (sequential, parallel, streaming) or the tabled
// resolver, and large-answer encoding carry the time.
func scratchShapes(d *EDB, r *rand.Rand) []*Request {
	sz := d.Sizes
	var out []*Request
	add := func(req *Request) {
		req.finish()
		out = append(out, req)
	}
	// Digraph closure into a constant, under magic: the magic set is one
	// node, the closure is real per-round work.
	ks := perm(sz.GraphN, r)
	for i, k := range wellConnected(d, ks, 8, ReachBack) {
		req := query("magic", fmt.Sprintf("r(X,%d)", k), "magic", DigestInts(ReachBack(d.G, k)))
		if i < 2 {
			req.Class, req.Workers = "workers2", 2
		}
		add(req)
	}
	// The whole of a join layer, materialized and streamed.
	for stage := 1; stage <= 3; stage++ {
		want := DigestPairs(d.JoinAll(stage))
		q := fmt.Sprintf("t%d(X,Z)", stage)
		add(query("magic", q, "magic", want))
		req := query("stream", q, "magic", want)
		req.Stream = true
		add(req)
	}
	// Same generation from a leaf, under magic.
	leaves := d.TreeNodes()[1<<sz.TreeDepth-1:]
	ls := perm(len(leaves), r)
	for i := 0; i < 8; i++ {
		x := leaves[ls(i)]
		req := query("magic", fmt.Sprintf("sg(%s,Y)", x), "magic", DigestNames(d.SameGen(x)))
		if i == 0 {
			req.Class, req.Workers = "workers2", 2
		}
		add(req)
	}
	// One tabled top-down query (short reach: tabling is slow on this base)
	// and one factored closure.
	k := sz.ChainN - 6 - r.Intn(4)
	add(query("tabled", fmt.Sprintf("t(%d,Y)", k), "tabled", DigestInts(Reach(d.E, k))))
	kf := wellConnected(d, ks, 1, Reach)[0]
	add(query("factored_opt", fmt.Sprintf("r(%d,Y)", kf), "factored+opt", DigestInts(Reach(d.G, kf))))
	return out
}

// scratchEval: 24 repeated shapes, all plan-cache hits after warm-up. One
// block is one pass over them.
func scratchEval(d *EDB, r *rand.Rand, blocks int) *Workload {
	shapes := scratchShapes(d, r)
	return &Workload{Flags: []string{"-materialize=false"},
		Warmup: shapes, Ops: deal(rounds(shapes, r, blocks))}
}

// liveMutation: each connection loops [one POST /facts batch → two queries
// on shapes the batch changes]. Connection 0 mutates e and g under the
// recursive closures (insertion deltas; DRed on retraction), connection 1
// mutates the s relations under the non-recursive join (counting
// retraction). The connections touch disjoint predicates, so each one's
// answers are fixed by its own history whatever the interleaving. One
// block is one cycle per connection.
func liveMutation(d *EDB, r *rand.Rand, blocks int) *Workload {
	sz := d.Sizes
	w := &Workload{Durable: true,
		Flags: []string{"-fsync-interval", "0", "-snapshot-every", "256"}}

	// Connection 0: the last stretch of the chain, and the digraph.
	region := smallReach(sz) * 2 // chain nodes ChainN-region..ChainN
	lo := sz.ChainN - region
	tA, tB := lo, lo+region/2
	gs := perm(sz.GraphN, r)
	gA, gB := wellConnected(d, gs, 1, Reach)[0], wellConnected(d, gs, 1, ReachBack)[0]
	chain := &edgePool{pred: "e", g: d.E, fresh: func() (int, int) {
		a := lo + r.Intn(region-1)
		return a, a + 1 + r.Intn(sz.ChainN-a)
	}}
	for a := lo; a < sz.ChainN; a++ {
		chain.present = append(chain.present, [2]int{a, a + 1})
	}
	graph := &edgePool{pred: "g", g: d.G, fresh: func() (int, int) {
		return r.Intn(sz.GraphN), r.Intn(sz.GraphN)
	}}
	for a := 0; a < sz.GraphN; a++ {
		for _, b := range d.G[a] {
			graph.present = append(graph.present, [2]int{a, b})
		}
	}
	chainQueries := func() []*Request {
		return []*Request{
			query("factored_opt", fmt.Sprintf("t(%d,Y)", tA), "factored+opt", DigestInts(Reach(d.E, tA))),
			query("auto", fmt.Sprintf("t(%d,Y)", tB), "auto", DigestInts(Reach(d.E, tB))),
		}
	}
	graphQueries := func() []*Request {
		return []*Request{
			query("factored_opt", fmt.Sprintf("r(%d,Y)", gA), "factored+opt", DigestInts(Reach(d.G, gA))),
			query("magic", fmt.Sprintf("r(X,%d)", gB), "magic", DigestInts(ReachBack(d.G, gB))),
		}
	}

	// Connection 1: the join's s relations, mutated on the paths of four
	// bound keys.
	js := perm(sz.JoinN, r)
	keys := []int{js(0), js(1), js(2), js(3)}
	joinQuery := func(k int) *Request {
		return query("magic", fmt.Sprintf("t%d(%d,Z)", JoinStages, k), "", DigestInts(d.Join(JoinStages, k)))
	}
	var joins [JoinStages + 1]*edgePool
	for s := range joins {
		s := s
		joins[s] = &edgePool{pred: fmt.Sprintf("s%d", s), g: d.S[s]}
	}

	w.Warmup = append(append(chainQueries(), graphQueries()...),
		joinQuery(keys[0]), joinQuery(keys[1]), joinQuery(keys[2]), joinQuery(keys[3]))

	for c := 0; c < blocks; c++ {
		n := 1 + r.Intn(8)
		retract := r.Intn(10) < 3
		// Connection 0 alternates chain and digraph.
		pool, reads := chain, chainQueries
		if c%2 == 1 {
			pool, reads = graph, graphQueries
		}
		batch := pool.batch(n, retract, r)
		w.Ops[0] = append(w.Ops[0], batch)
		for _, q := range reads() {
			q.CycleStart = false
			w.Ops[0] = append(w.Ops[0], q)
		}

		// Connection 1 mutates one stage under two of the keys: new edges
		// leave, and retractions cut, nodes those keys actually reach.
		n = 1 + r.Intn(8)
		retract = r.Intn(10) < 3
		k1, k2 := keys[c%4], keys[(c+1)%4]
		stage := r.Intn(JoinStages + 1)
		frontier := []int{k1, k2}
		if stage > 0 {
			frontier = union(d.Join(stage-1, k1), d.Join(stage-1, k2))
		}
		if len(frontier) == 0 { // retractions cut both keys off before this stage
			stage, frontier = 0, []int{k1, k2}
		}
		jp := joins[stage]
		jp.present = jp.present[:0]
		for _, a := range frontier {
			for _, b := range d.S[stage][a] {
				jp.present = append(jp.present, [2]int{a, b})
			}
		}
		// A new edge joins, where it can, two nodes the keys already reach, so
		// it adds derivations rather than answers: the answer sets grow
		// slowly instead of racing towards the whole key space.
		next := union(d.Join(stage, k1), d.Join(stage, k2))
		if len(next) == 0 {
			next = []int{r.Intn(sz.JoinN)}
		}
		jp.fresh = func() (int, int) {
			a, b := frontier[r.Intn(len(frontier))], next[r.Intn(len(next))]
			if d.S[stage].Has(a, b) { // the reached pairs can run out, early stages first
				b = r.Intn(sz.JoinN)
			}
			return a, b
		}
		w.Ops[1] = append(w.Ops[1], jp.batch(n, retract, r))
		for _, k := range []int{k1, k2} {
			q := joinQuery(k)
			q.CycleStart = false
			w.Ops[1] = append(w.Ops[1], q)
		}
	}
	return w
}

func union(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range append(a, b...) {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// edgePool generates effective mutation batches over one binary predicate
// and keeps the oracle's graph in step: an assert always adds an absent
// edge (a retracted one coming back, half the time, else a fresh one), a
// retract always removes a present one.
type edgePool struct {
	pred    string
	g       Graph
	present [][2]int // retractable edges
	gone    [][2]int // retracted edges, candidates for re-assertion
	fresh   func() (a, b int)
}

func (p *edgePool) batch(n int, retract bool, r *rand.Rand) *Request {
	if retract && len(p.present) < n {
		retract = false
	}
	var out []string
	for len(out) < n {
		var e [2]int
		switch {
		case retract && len(p.present) == 0:
			return facts(nil, out) // ran dry; n was capped above, so out is not empty
		case retract:
			i := r.Intn(len(p.present))
			e = p.present[i]
			p.present[i] = p.present[len(p.present)-1]
			p.present = p.present[:len(p.present)-1]
			if !p.g.Del(e[0], e[1]) {
				continue // listed twice; already retracted
			}
			p.gone = append(p.gone, e)
		case len(p.gone) > 0 && r.Intn(2) == 0:
			i := r.Intn(len(p.gone))
			e = p.gone[i]
			p.gone[i] = p.gone[len(p.gone)-1]
			p.gone = p.gone[:len(p.gone)-1]
			if !p.g.Add(e[0], e[1]) {
				continue
			}
			p.present = append(p.present, e)
		default:
			a, b := p.fresh()
			if !p.g.Add(a, b) {
				continue
			}
			e = [2]int{a, b}
			p.present = append(p.present, e)
		}
		out = append(out, fmt.Sprintf("%s(%d,%d)", p.pred, e[0], e[1]))
	}
	if retract {
		return facts(nil, out)
	}
	return facts(out, nil)
}
