// oracle.go — the reference answers every benchmark response is
// checked against.  Plain Go over adjacency lists and bitsets: BFS,
// backward induction and set complement.  It imports nothing from
// repro/internal, so an engine bug cannot hide in its own oracle.
package main

import "math/bits"

// rel is a relation over vertex ids 0..n-1 as a bitset: the tuple
// (a₀,…,a_{k-1}) has id a₀·n^{k-1} + … + a_{k-1}.
type rel struct {
	arity, n int
	words    []uint64
}

func newRel(arity, n int) *rel {
	size := 1
	for i := 0; i < arity; i++ {
		size *= n
	}
	return &rel{arity: arity, n: n, words: make([]uint64, (size+63)/64)}
}

func (r *rel) add(id int)      { r.words[id>>6] |= 1 << (id & 63) }
func (r *rel) has(id int) bool { return r.words[id>>6]&(1<<(id&63)) != 0 }

func (r *rel) count() int {
	c := 0
	for _, w := range r.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// each calls f with every tuple id in increasing order.
func (r *rel) each(f func(id int)) { r.eachIn(0, len(r.words)*64, f) }

// eachIn calls f with every tuple id in [lo, hi) in increasing order.
func (r *rel) eachIn(lo, hi int, f func(id int)) {
	for i := lo >> 6; i < len(r.words) && i<<6 < hi; i++ {
		for w := r.words[i]; w != 0; w &= w - 1 {
			if id := i<<6 + bits.TrailingZeros64(w); id >= lo && id < hi {
				f(id)
			}
		}
	}
}

// answer is the order-independent digest responses are compared by:
// the tuple count and the sum of a 64-bit mix of every tuple id.
type answer struct {
	n int
	h uint64
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (a *answer) add(id int) {
	a.n++
	a.h += mix64(uint64(id))
}

// digest summarises the tuples of r that match pattern: pattern[i] is
// a vertex id the i-th column must equal, or -1 for a wildcard.
func (r *rel) digest(pattern []int) answer {
	// Leading bound columns pin a contiguous range of ids: s(c,?) is
	// row c of the matrix, not a scan of all of s.
	lo, width := 0, len(r.words)*64
	if r.arity > 0 {
		width = 1
		for i := 0; i < r.arity; i++ {
			width *= r.n
		}
		for i := 0; i < r.arity && pattern[i] >= 0; i++ {
			width /= r.n
			lo += pattern[i] * width
		}
	}
	var a answer
	r.eachIn(lo, lo+width, func(id int) {
		rest := id
		for i := r.arity - 1; i >= 0; i-- {
			if pattern[i] >= 0 && rest%r.n != pattern[i] {
				return
			}
			rest /= r.n
		}
		a.add(id)
	})
	return a
}

// adjacency builds out-neighbour lists from an edge set.
func adjacency(n int, edges []edge) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e.b)
	}
	return adj
}

// distances returns d[a][b], the length of the shortest path of at
// least one edge from a to b, or -1 when there is none.  d[a][a] is the
// shortest cycle through a: the transitive-closure programs derive
// s(a,a) only from a cycle.
func distances(adj [][]int) [][]int {
	n := len(adj)
	d := make([][]int, n)
	queue := make([]int, 0, n)
	for a := range adj {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		queue = queue[:0]
		for _, b := range adj[a] {
			if row[b] < 0 {
				row[b] = 1
				queue = append(queue, b)
			}
		}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if row[y] < 0 {
					row[y] = row[x] + 1
					queue = append(queue, y)
				}
			}
		}
		d[a] = row
	}
	return d
}

// reachability is the transitive closure s(a,b): a path of at least
// one edge leads from a to b.
func reachability(adj [][]int) *rel {
	n := len(adj)
	r := newRel(2, n)
	for a, row := range distances(adj) {
		for b, d := range row {
			if d > 0 {
				r.add(a*n + b)
			}
		}
	}
	return r
}

// complement returns domain^arity minus r, where domain lists the
// vertex ids negation ranges over.
func complement(r *rel, domain []int) *rel {
	out := newRel(r.arity, r.n)
	var walk func(col, id int)
	walk = func(col, id int) {
		if col == r.arity {
			if !r.has(id) {
				out.add(id)
			}
			return
		}
		for _, v := range domain {
			walk(col+1, id*r.n+v)
		}
	}
	walk(0, 0)
	return out
}

// distanceStratified is s3 of the paper's distance program read
// stratum by stratum: s1 and s2 are both the full transitive closure
// before s3 is evaluated, so s3(x,y,xs,ys) holds iff y is reachable
// from x and ys is not reachable from xs.  universe lists the constants
// the unsafe variables Xs, Ys range over.
func distanceStratified(adj [][]int, universe []int) *rel {
	n := len(adj)
	reach := reachability(adj)
	unreach := complement(reach, universe)
	out := newRel(4, n)
	reach.each(func(xy int) {
		unreach.each(func(xsys int) { out.add(xy*n*n + xsys) })
	})
	return out
}

// distanceInflationary is s3 of the same program under the paper's
// inflationary reading.  Stage k+1 adds (x,y,xs,ys) when a path of at
// most k+1 edges joins x to y and no path of at most k edges joins xs
// to ys, so the limit is d(x,y) finite and d(x,y) <= d(xs,ys) — the
// "distance" query stratified evaluation cannot express with these
// rules.
func distanceInflationary(adj [][]int, universe []int) *rel {
	n := len(adj)
	d := distances(adj)
	out := newRel(4, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if d[x][y] < 0 {
				continue
			}
			for _, xs := range universe {
				for _, ys := range universe {
					if d[xs][ys] < 0 || d[x][y] <= d[xs][ys] {
						out.add((x*n+y)*n*n + xs*n + ys)
					}
				}
			}
		}
	}
	return out
}

// Game values of win(X) :- move(X,Y), !win(Y).
const (
	gameUndefined = iota // a draw: neither derivable nor refutable
	gameWin              // well-founded true
	gameLose             // well-founded false
)

// winMove solves the game by backward induction.  A position with no
// move loses; a position with a move to a losing position wins; a
// position all of whose moves reach winning positions loses; whatever
// is left when nothing more can be labelled is undefined.
func winMove(adj [][]int) []int {
	n := len(adj)
	pred := make([][]int, n)
	open := make([]int, n) // moves not yet known to reach a winning position
	for a, outs := range adj {
		open[a] = len(outs)
		for _, b := range outs {
			pred[b] = append(pred[b], a)
		}
	}
	val := make([]int, n)
	var queue []int
	for a := range adj {
		if open[a] == 0 {
			val[a] = gameLose
			queue = append(queue, a)
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, a := range pred[b] {
			if val[a] != gameUndefined {
				continue
			}
			if val[b] == gameLose {
				val[a] = gameWin
				queue = append(queue, a)
			} else if open[a]--; open[a] == 0 {
				val[a] = gameLose
				queue = append(queue, a)
			}
		}
	}
	return val
}

// winTrue is the unary relation of winning positions — what the daemon
// publishes as win under the well-founded semantics.
func winTrue(adj [][]int) *rel {
	r := newRel(1, len(adj))
	for a, v := range winMove(adj) {
		if v == gameWin {
			r.add(a)
		}
	}
	return r
}

// winInflationary is win under the inflationary reading: stage 1 adds
// every position with a move (nothing is in win yet, so every negation
// holds) and no later stage can add a position without one.
func winInflationary(adj [][]int) *rel {
	r := newRel(1, len(adj))
	for a, outs := range adj {
		if len(outs) > 0 {
			r.add(a)
		}
	}
	return r
}
