package server_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
)

// newHTTP serves srv over a test listener and returns the base URL.
func newHTTP(t *testing.T, srv *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

type queryResp struct {
	Count      int        `json:"count"`
	Tuples     [][]string `json:"tuples"`
	Source     string     `json:"source"`
	Adornment  string     `json:"adornment"`
	Generation uint64     `json:"generation"`
	Derived    int        `json:"derived"`
	Rounds     int        `json:"rounds"`
}

func sortTuples(ts [][]string) {
	sort.Slice(ts, func(i, j int) bool { return fmt.Sprint(ts[i]) < fmt.Sprint(ts[j]) })
}

func TestMagicQueryEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, core.LFP)
	if !srv.MagicSupported() {
		t.Fatal("LFP server should support magic queries")
	}

	v2 := "v2"
	var mat, mag queryResp
	if code := postJSON(t, ts.URL+"/v1/query",
		map[string]any{"pred": "s", "args": []*string{&v2, nil}}, &mat); code != 200 {
		t.Fatalf("materialized query status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/query",
		map[string]any{"pred": "s", "args": []*string{&v2, nil}, "magic": true}, &mag); code != 200 {
		t.Fatalf("magic query status %d", code)
	}
	if mat.Source != "materialized" || mag.Source != "magic" || mag.Adornment != "bf" {
		t.Fatalf("sources = %q/%q adornment %q", mat.Source, mag.Source, mag.Adornment)
	}
	if mag.Count != mat.Count {
		t.Fatalf("magic count %d != materialized count %d", mag.Count, mat.Count)
	}
	sortTuples(mat.Tuples)
	sortTuples(mag.Tuples)
	for i := range mat.Tuples {
		if fmt.Sprint(mat.Tuples[i]) != fmt.Sprint(mag.Tuples[i]) {
			t.Fatalf("tuple %d differs: %v vs %v", i, mat.Tuples[i], mag.Tuples[i])
		}
	}

	// Same adornment, different constant: the cached rewrite is reused.
	if n := srv.RewriteCacheSize(); n != 1 {
		t.Fatalf("rewrite cache size %d, want 1", n)
	}
	v5 := "v5"
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v5, nil}, "magic": true}, &mag)
	if n := srv.RewriteCacheSize(); n != 1 {
		t.Fatalf("rewrite cache size %d after same-adornment query, want 1", n)
	}
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{nil, &v5}, "magic": true}, &mag)
	if n := srv.RewriteCacheSize(); n != 2 {
		t.Fatalf("rewrite cache size %d after new adornment, want 2", n)
	}

	// EDB predicates take the materialized path even with magic on.
	var e queryResp
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "E", "args": []*string{&v2, nil}, "magic": true}, &e)
	if e.Source != "materialized" || e.Count != 1 {
		t.Fatalf("EDB query = %+v", e)
	}
}

// TestMagicQueryEffortPinned pins what one demand-driven query derives
// and how many rounds it runs: TC on an 8-vertex path under LFP, whose
// rewrite is evaluated as one stratum, at the values the induction over
// the whole rewrite gave before strata evaluated every rewrite.
func TestMagicQueryEffortPinned(t *testing.T) {
	_, ts := newTestServer(t, core.LFP)
	v2 := "v2"
	var q queryResp
	if code := postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v2, nil}, "magic": true}, &q); code != 200 {
		t.Fatalf("magic query status %d", code)
	}
	if q.Source != "magic" || q.Count != 5 || q.Derived != 21 || q.Rounds != 11 {
		t.Fatalf("magic query = %+v, want 5 answers, 21 derived tuples, 11 rounds", q)
	}
}

// TestMagicQueryDefault: a query is demand-driven only when its request
// says "magic": true; without the field, or with false, it reads the
// materialization.
func TestMagicQueryDefault(t *testing.T) {
	_, ts := newTestServer(t, core.Inflationary) // TC is positive: coincides with LFP
	v0 := "v0"
	var q queryResp
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v0, nil}, "magic": true}, &q)
	if q.Source != "magic" || q.Count != 7 {
		t.Fatalf("magic query = %+v", q)
	}
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v0, nil}}, &q)
	if q.Source != "materialized" || q.Count != 7 {
		t.Fatalf("default query = %+v", q)
	}
	postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v0, nil}, "magic": false}, &q)
	if q.Source != "materialized" || q.Count != 7 {
		t.Fatalf("opt-out query = %+v", q)
	}
}

func TestMagicQueryRejectedUnderWellFounded(t *testing.T) {
	srv, err := server.New(parser.MustProgram("win(X) :- E(X,Y), !win(Y)."),
		graphs.Path(4).Database(), core.WellFounded)
	if err != nil {
		t.Fatal(err)
	}
	if srv.MagicSupported() {
		t.Fatal("well-founded server should not support magic queries")
	}
	ts := newHTTP(t, srv)
	v0 := "v0"
	if code := postJSON(t, ts+"/v1/query",
		map[string]any{"pred": "win", "args": []*string{&v0}, "magic": true}, nil); code != http.StatusBadRequest {
		t.Fatalf("magic under WF status %d, want 400", code)
	}
}

// TestMagicQueryStratifiedServer covers the stratified evaluation arm
// of the server's magic path, negation included.
func TestMagicQueryStratifiedServer(t *testing.T) {
	src := `
s(X,Y) :- E(X,Y).
s(X,Y) :- s(X,Z), E(Z,Y).
frontiervert(X,Y) :- s(X,Y), !E(X,Y).
`
	srv, err := server.New(parser.MustProgram(src), graphs.Path(6).Database(), core.Stratified)
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTP(t, srv)
	v1 := "v1"
	var mat, mag queryResp
	postJSON(t, ts+"/v1/query", map[string]any{"pred": "frontiervert", "args": []*string{&v1, nil}}, &mat)
	postJSON(t, ts+"/v1/query", map[string]any{"pred": "frontiervert", "args": []*string{&v1, nil}, "magic": true}, &mag)
	if mag.Count != mat.Count || mag.Count == 0 {
		t.Fatalf("magic %d vs materialized %d", mag.Count, mat.Count)
	}
}

// TestMagicQueryConcurrentWithUpdates hammers the demand-driven path
// from several readers while the maintainer applies updates: every
// response must be internally consistent (all tuples match the bound
// constant) and the run must be race-free (the CI race job includes
// this package).
func TestMagicQueryConcurrentWithUpdates(t *testing.T) {
	srv, ts := newTestServer(t, core.LFP)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := fmt.Sprintf("v%d", i%8)
				var q queryResp
				if code := postJSON(t, ts.URL+"/v1/query",
					map[string]any{"pred": "s", "args": []*string{&v, nil}, "magic": true}, &q); code != 200 {
					t.Errorf("magic query status %d", code)
					return
				}
				if q.Source != "magic" {
					t.Errorf("source = %q", q.Source)
					return
				}
				for _, tup := range q.Tuples {
					if len(tup) != 2 || tup[0] != v {
						t.Errorf("query s(%s,?) returned tuple %v", v, tup)
						return
					}
				}
			}
		}(w)
	}

	for i := 0; i < 30; i++ {
		u, v := fmt.Sprintf("v%d", i%8), fmt.Sprintf("v%d", (i*3+1)%8)
		var ins, del []incr.Fact
		if i%3 == 0 {
			del = append(del, incr.Fact{Pred: "E", Args: []string{u, v}})
		} else {
			ins = append(ins, incr.Fact{Pred: "E", Args: []string{u, v}})
		}
		if _, _, err := srv.Update(ins, del); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
