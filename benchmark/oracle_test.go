package main

import (
	"reflect"
	"testing"
)

// ids collects a relation's tuple ids.
func ids(r *rel) []int {
	out := []int{}
	r.each(func(id int) { out = append(out, id) })
	return out
}

func TestReachabilityAndDistances(t *testing.T) {
	// 0 -> 1 -> 2, and 3 on a self-contained two-cycle with 4.
	adj := adjacency(5, []edge{{0, 1}, {1, 2}, {3, 4}, {4, 3}})
	d := distances(adj)
	want := [][]int{
		{-1, 1, 2, -1, -1},
		{-1, -1, 1, -1, -1},
		{-1, -1, -1, -1, -1},
		{-1, -1, -1, 2, 1}, // 3 reaches itself only round the cycle
		{-1, -1, -1, 1, 2},
	}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("distances = %v, want %v", d, want)
	}
	got := ids(reachability(adj))
	wantIDs := []int{0*5 + 1, 0*5 + 2, 1*5 + 2, 3*5 + 3, 3*5 + 4, 4*5 + 3, 4*5 + 4}
	if !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("reachability = %v, want %v", got, wantIDs)
	}
}

func TestComplement(t *testing.T) {
	r := newRel(2, 3)
	r.add(0*3 + 1)
	r.add(2*3 + 2)
	// Over the domain {0, 2} only pairs of 0 and 2 are candidates.
	got := ids(complement(r, []int{0, 2}))
	want := []int{0*3 + 0, 0*3 + 2, 2*3 + 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("complement = %v, want %v", got, want)
	}
}

func TestDistanceProgramReadings(t *testing.T) {
	// The path 0 -> 1 -> 2: d(0,1) = d(1,2) = 1, d(0,2) = 2, nothing else.
	adj := adjacency(3, []edge{{0, 1}, {1, 2}})
	universe := []int{0, 1, 2}
	id := func(x, y, xs, ys int) int { return ((x*3+y)*3+xs)*3 + ys }

	strat := distanceStratified(adj, universe)
	// 3 reachable pairs times 6 unreachable pairs.
	if n := strat.count(); n != 18 {
		t.Errorf("stratified s3 has %d tuples, want 18", n)
	}
	if strat.has(id(0, 1, 0, 1)) {
		t.Error("stratified s3(0,1,0,1) holds although 1 is reachable from 0")
	}
	if !strat.has(id(0, 1, 1, 0)) {
		t.Error("stratified s3(0,1,1,0) is missing: 0 is not reachable from 1")
	}

	infl := distanceInflationary(adj, universe)
	// Both pairs at distance 1 beat or tie all 9 pairs; the pair at
	// distance 2 loses to the two pairs at distance 1.
	if n := infl.count(); n != 9+9+7 {
		t.Errorf("inflationary s3 has %d tuples, want 25", n)
	}
	for _, c := range []struct {
		tuple [4]int
		want  bool
	}{
		{[4]int{0, 1, 0, 1}, true},  // 1 <= 1: the tie stratified evaluation excludes
		{[4]int{0, 1, 0, 2}, true},  // 1 <= 2
		{[4]int{0, 2, 0, 1}, false}, // 2 > 1
		{[4]int{0, 2, 0, 2}, true},  // 2 <= 2
		{[4]int{0, 2, 2, 0}, true},  // 2 <= infinity
		{[4]int{2, 0, 0, 1}, false}, // no path from 2 to 0 at all
	} {
		if got := infl.has(id(c.tuple[0], c.tuple[1], c.tuple[2], c.tuple[3])); got != c.want {
			t.Errorf("inflationary s3%v = %t, want %t", c.tuple, got, c.want)
		}
	}
}

func TestWinMove(t *testing.T) {
	// 0 -> 1 -> 2 with 2 stuck: 2 loses, 1 wins, 0 loses.
	// 3 <-> 4 is a draw; 5 can only move into it, so 5 draws too;
	// 6 can move into the draw or to the stuck 2, so 6 wins.
	adj := adjacency(7, []edge{{0, 1}, {1, 2}, {3, 4}, {4, 3}, {5, 3}, {6, 3}, {6, 2}})
	want := []int{gameLose, gameWin, gameLose, gameUndefined, gameUndefined, gameUndefined, gameWin}
	if got := winMove(adj); !reflect.DeepEqual(got, want) {
		t.Fatalf("winMove = %v, want %v", got, want)
	}
	if got := ids(winTrue(adj)); !reflect.DeepEqual(got, []int{1, 6}) {
		t.Errorf("winTrue = %v, want [1 6]", got)
	}
	// Inflationary: whoever can move at all.
	if got := ids(winInflationary(adj)); !reflect.DeepEqual(got, []int{0, 1, 3, 4, 5, 6}) {
		t.Errorf("winInflationary = %v, want every position but 2", got)
	}
}

func TestDigestPattern(t *testing.T) {
	r := newRel(2, 4)
	for _, id := range []int{1*4 + 0, 1*4 + 3, 2*4 + 3} {
		r.add(id)
	}
	var want answer
	want.add(1*4 + 0)
	want.add(1*4 + 3)
	if got := r.digest([]int{1, -1}); got != want {
		t.Errorf("digest(1,?) = %+v, want %+v", got, want)
	}
	if got := r.digest([]int{-1, 3}); got.n != 2 {
		t.Errorf("digest(?,3) counts %d tuples, want 2", got.n)
	}
}
