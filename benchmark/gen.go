// gen.go — seeded inputs: graphs, the toggle pool and the operation
// sequence.  Everything here is a pure function of the seed, so the
// same seed replays byte for byte; the daemon only ever sees the files
// and requests generated from it.
package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

type edge struct{ a, b int }

func vname(v int) string { return "v" + strconv.Itoa(v) }

// vindex inverts vname; ok is false for a constant the harness never
// generated.
func vindex(s string) (int, bool) {
	if len(s) < 2 || s[0] != 'v' {
		return 0, false
	}
	v, err := strconv.Atoi(s[1:])
	return v, err == nil && v >= 0
}

// randomGraph is G(n,p) without self-loops.
func randomGraph(rng *rand.Rand, n int, p float64) []edge {
	var es []edge
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && rng.Float64() < p {
				es = append(es, edge{a, b})
			}
		}
	}
	return es
}

// layeredGame is the win-move board: two disjoint regions of n/2
// positions each, both in layers of gameLayerWidth with three forward
// moves per position into the next three layers.  The first region has
// no other move: it is a DAG, where every position is won or lost.  In
// the second every third position also has a backward move; those close
// cycles, which is where the well-founded model leaves positions
// undefined.  One region alone is bistable — undefinedness spreads
// upwards from a single cycle over most of a board, or dies out — and a
// few forward toggles flip it; two regions pinned to either regime keep
// all three truth values populated for the whole run.
func layeredGame(rng *rand.Rand, n int) []edge {
	const outDegree, backEvery = 3, 3
	half := n / 2
	seen := map[edge]bool{}
	var es []edge
	add := func(e edge) {
		if e.a != e.b && !seen[e] {
			seen[e] = true
			es = append(es, e)
		}
	}
	layers := half / gameLayerWidth
	for base := 0; base < n; base += half {
		for a := 0; a < half; a++ {
			layer := a / gameLayerWidth
			if layer < layers-1 {
				for k := 0; k < outDegree; k++ {
					to := min(layer+1+rng.Intn(3), layers-1)
					add(edge{base + a, base + to*gameLayerWidth + rng.Intn(gameLayerWidth)})
				}
			}
			if base > 0 && layer > 0 && a%backEvery == 0 {
				add(edge{base + a, base + rng.Intn(layer*gameLayerWidth)})
			}
		}
	}
	return es
}

// gameToggle reports whether updates may toggle e on an n-position
// board: forward moves of the acyclic region only.  A forward toggle in
// the cyclic region can cut the last path into a cycle and wipe out
// every undefined position at once; the run would then measure two
// different boards depending on where in the pool it stands.
func gameToggle(e edge, n int) bool {
	half := n / 2
	return e.a < half && e.b < half && e.a/gameLayerWidth < e.b/gameLayerWidth
}

const gameLayerWidth = 10

// edb is the harness's own copy of the extensional edge relation.
type edb struct {
	n   int
	has []bool // has[a*n+b]
}

func newEDB(n int, edges []edge) *edb {
	d := &edb{n: n, has: make([]bool, n*n)}
	for _, e := range edges {
		d.has[e.a*n+e.b] = true
	}
	return d
}

func (d *edb) apply(ins, del []edge) {
	for _, e := range del {
		d.has[e.a*d.n+e.b] = false
	}
	for _, e := range ins {
		d.has[e.a*d.n+e.b] = true
	}
}

// changes reports an error unless every edge of ins is absent and
// every edge of del present, that is, unless applying them changes the
// relation by exactly len(ins)+len(del) tuples.
func (d *edb) changes(ins, del []edge) error {
	for _, e := range ins {
		if d.has[e.a*d.n+e.b] {
			return fmt.Errorf("inserts %s -> %s, which is present", vname(e.a), vname(e.b))
		}
	}
	for _, e := range del {
		if !d.has[e.a*d.n+e.b] {
			return fmt.Errorf("deletes %s -> %s, which is absent", vname(e.a), vname(e.b))
		}
	}
	return nil
}

func (d *edb) edges() []edge {
	var es []edge
	for id, ok := range d.has {
		if ok {
			es = append(es, edge{id / d.n, id % d.n})
		}
	}
	return es
}

func (d *edb) rel() *rel {
	r := newRel(2, d.n)
	for id, ok := range d.has {
		if ok {
			r.add(id)
		}
	}
	return r
}

// togglePool is the fixed set of edges updates flip.  It starts half
// present and is walked round-robin in an order that alternates an
// absent edge with a present one, so every two toggles are one insert
// and one delete and the relation's size never drifts by more than one
// tuple.  An edge comes round again only after the whole pool has been
// flipped, so two in-flight updates never touch the same tuple and each
// toggle's direction does not depend on how the two clients interleave.
type togglePool struct {
	edges   []edge
	present []bool
	next    int
}

// newTogglePool draws half present edges out of the graph and half
// absent pairs, both restricted to edges allowed admits (nil admits
// every edge).
func newTogglePool(rng *rand.Rand, n int, graph []edge, half int, allowed func(e edge, n int) bool) *togglePool {
	in := make(map[edge]bool, len(graph))
	var candidates []edge
	for _, e := range graph {
		in[e] = true
		if allowed == nil || allowed(e, n) {
			candidates = append(candidates, e)
		}
	}
	if len(candidates) < half {
		panic(fmt.Sprintf("benchmark: the graph has %d edges the pool may hold, the pool wants %d", len(candidates), half))
	}
	perm := rng.Perm(len(candidates))
	p := &togglePool{}
	for i := 0; i < half; i++ {
		var absent edge
		for {
			absent = edge{rng.Intn(n), rng.Intn(n)}
			if absent.a != absent.b && !in[absent] && (allowed == nil || allowed(absent, n)) {
				in[absent] = true
				break
			}
		}
		p.edges = append(p.edges, absent, candidates[perm[i]])
		p.present = append(p.present, false, true)
	}
	return p
}

// toggle flips the next k pool edges and returns them as inserts and
// deletes.
func (p *togglePool) toggle(k int) (ins, del []edge) {
	for ; k > 0; k-- {
		i := p.next % len(p.edges)
		p.next++
		if p.present[i] {
			del = append(del, p.edges[i])
		} else {
			ins = append(ins, p.edges[i])
		}
		p.present[i] = !p.present[i]
	}
	return ins, del
}

type opKind uint8

const (
	opQuery opKind = iota
	opStats
	opRelation
	opUpdate
)

// op is one pre-rendered request plus what the verifier needs to
// recompute its answer.
type op struct {
	kind    opKind
	method  string
	path    string
	body    []byte
	pred    string // opQuery, opRelation
	pattern []int  // opQuery: vertex id per column, -1 = wildcard
	magic   bool   // opQuery: demand-driven
	ins     []edge // opUpdate
	del     []edge
}

func (o *op) isUpdate() bool { return o.kind == opUpdate }

// mixEntry is one line of a workload's traffic mix: count ops per
// block of 100, each built by make.
type mixEntry struct {
	count int
	make  func(g *generator) op
}

// generator turns a spec and a seed into inputs.  The graph's shape,
// the pool and the order the pool is walked in come from the spec's own
// fixed shapeSeed; the run's seed relabels the vertices, orders the fact
// file, and picks the op order and the query constants.  Two seeds
// therefore give different inputs that cost the same.  On graphs this
// small the shape of one G(n,p) draw moves DRed's cost by a factor of
// two, and the order of the toggles alone — which edges are present at
// the same time — by a tenth; either would drown every bound.
type generator struct {
	spec    *serveSpec
	rng     *rand.Rand
	graph   []edge
	pool    *togglePool
	updates int
}

func newGenerator(spec *serveSpec, seed int64) *generator {
	shape := rand.New(rand.NewSource(spec.shapeSeed))
	graph := spec.graph(shape, spec.n)
	pool := newTogglePool(shape, spec.n, graph, spec.poolHalf, spec.poolAllowed)

	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(spec.n)
	relabel := func(e edge) edge { return edge{label[e.a], label[e.b]} }
	for i := range graph {
		graph[i] = relabel(graph[i])
	}
	rng.Shuffle(len(graph), func(i, j int) { graph[i], graph[j] = graph[j], graph[i] })
	for i := range pool.edges {
		pool.edges[i] = relabel(pool.edges[i])
	}
	return &generator{spec: spec, rng: rng, graph: graph, pool: pool}
}

// factsFile renders the initial EDB.
func (g *generator) factsFile() string {
	var b strings.Builder
	if g.spec.vertexPred != "" {
		for v := 0; v < g.spec.n; v++ {
			fmt.Fprintf(&b, "%s(%s).\n", g.spec.vertexPred, vname(v))
		}
	}
	for _, e := range g.graph {
		fmt.Fprintf(&b, "%s(%s,%s).\n", g.spec.edgePred, vname(e.a), vname(e.b))
	}
	return b.String()
}

func statsOp(*generator) op { return op{kind: opStats, method: "GET", path: "/v1/stats"} }

func relationOp(pred string) func(*generator) op {
	return func(*generator) op {
		return op{kind: opRelation, method: "GET", path: "/v1/relation?pred=" + pred, pred: pred}
	}
}

// queryOp builds POST /v1/query ops on pred.  bound lists which
// columns get a random constant; the others are wildcards.
func queryOp(pred string, bound []bool, magic bool) func(*generator) op {
	return func(g *generator) op {
		o := op{kind: opQuery, method: "POST", path: "/v1/query", pred: pred, magic: magic}
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"pred":%q,"args":[`, pred)
		for i, isBound := range bound {
			if i > 0 {
				b.WriteByte(',')
			}
			if isBound {
				c := g.rng.Intn(g.spec.n)
				o.pattern = append(o.pattern, c)
				fmt.Fprintf(&b, "%q", vname(c))
			} else {
				o.pattern = append(o.pattern, -1)
				b.WriteString("null")
			}
		}
		b.WriteString("]")
		if magic {
			b.WriteString(`,"magic":true`)
		}
		b.WriteString("}")
		o.body = b.Bytes()
		return o
	}
}

// updateOp swaps one pool edge in and one out, or batchSize/2 of each
// on every batchEvery-th update of the sequence.  Every update
// therefore carries a deletion: with single-edge toggles the latency
// of a DRed-maintained program is bimodal (an insert is tens of times
// cheaper than a delete) and its median falls into the gap.
func updateOp(g *generator) op {
	g.updates++
	k := 2
	if g.spec.batchEvery > 0 && g.updates%g.spec.batchEvery == 0 {
		k = batchSize
	}
	return g.updateOfSize(k)
}

const batchSize = 16

func (g *generator) updateOfSize(k int) op {
	o := op{kind: opUpdate, method: "POST", path: "/v1/update"}
	o.ins, o.del = g.pool.toggle(k)
	var b bytes.Buffer
	b.WriteString(`{"insert":[`)
	g.writeFacts(&b, o.ins)
	b.WriteString(`],"delete":[`)
	g.writeFacts(&b, o.del)
	b.WriteString("]}")
	o.body = b.Bytes()
	return o
}

func (g *generator) writeFacts(b *bytes.Buffer, es []edge) {
	for i, e := range es {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, `{"pred":%q,"args":[%q,%q]}`, g.spec.edgePred, vname(e.a), vname(e.b))
	}
}

// ops generates the next count operations, count a multiple of 100:
// every block of 100 holds exactly the spec's mix in a shuffled order,
// so each window carries the same work whatever the seed.
func (g *generator) ops(count int) []op {
	if count%100 != 0 {
		panic("benchmark: op counts are multiples of 100")
	}
	out := make([]op, 0, count)
	var block []func(*generator) op
	for _, m := range g.spec.mix {
		for i := 0; i < m.count; i++ {
			block = append(block, m.make)
		}
	}
	if len(block) != 100 {
		panic("benchmark: a mix must add up to 100 ops")
	}
	for len(out) < count {
		g.rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, mk := range block {
			out = append(out, mk(g))
		}
	}
	return out
}

// singleUpdates generates count single-fact updates, the recovery
// phase's WAL suffix.
func (g *generator) singleUpdates(count int) []op {
	out := make([]op, count)
	for i := range out {
		out[i] = g.updateOfSize(1)
	}
	return out
}

// encodeOps is the canonical byte form of a sequence, what "the same
// seed gives the same sequence" means.
func encodeOps(ops []op) []byte {
	var b bytes.Buffer
	for i := range ops {
		fmt.Fprintf(&b, "%s %s %s\n", ops[i].method, ops[i].path, ops[i].body)
	}
	return b.Bytes()
}
