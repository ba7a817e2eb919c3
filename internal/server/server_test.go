package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
)

const tcSrc = "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y)."

func newTestServer(t *testing.T, sem core.Semantics) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(parser.MustProgram(tcSrc), graphs.Path(8).Database(), sem)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, core.LFP)

	var stats struct {
		Semantics string         `json:"semantics"`
		Relations map[string]int `json:"relations"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Semantics != "lfp" || stats.Relations["s"] != 7*8/2 {
		t.Fatalf("stats = %+v", stats)
	}

	var rel struct {
		Tuples [][]string `json:"tuples"`
	}
	getJSON(t, ts.URL+"/v1/relation?pred=E", &rel)
	if len(rel.Tuples) != 7 {
		t.Fatalf("|E| = %d, want 7", len(rel.Tuples))
	}

	v0 := "v0"
	var q struct {
		Count int `json:"count"`
	}
	if code := postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v0, nil}}, &q); code != 200 {
		t.Fatalf("query status %d", code)
	}
	if q.Count != 7 {
		t.Fatalf("s(v0, _) matched %d, want 7", q.Count)
	}

	var up struct {
		Stats incr.UpdateStats `json:"stats"`
	}
	code := postJSON(t, ts.URL+"/v1/update", map[string]any{
		"insert": []incr.Fact{{Pred: "E", Args: []string{"v7", "v0"}}},
	}, &up)
	if code != 200 {
		t.Fatalf("update status %d", code)
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Relations["s"] != 8*8 { // the path closed into a cycle: full TC
		t.Fatalf("|s| after closing the cycle = %d, want 64", stats.Relations["s"])
	}

	if code := postJSON(t, ts.URL+"/v1/update", map[string]any{
		"insert": []incr.Fact{{Pred: "s", Args: []string{"v0", "v0"}}},
	}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("IDB update status %d, want 422", code)
	}
	if code := postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "nope", "args": []*string{}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown pred status %d, want 404", code)
	}
}

// TestConcurrentReadersDuringUpdates is the daemon acceptance check:
// snapshot readers hammer the API while the maintainer applies a stream
// of updates.  Run under -race; each reader also checks that the reads
// within one loaded snapshot are internally consistent.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	srv, ts := newTestServer(t, core.Inflationary)

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
				// Direct snapshot reads: length must agree with iteration.
				snap := srv.Snapshot()
				s := snap.Relation("s")
				got := len(s.Tuples())
				if got != s.Len() {
					t.Errorf("snapshot inconsistent: Tuples=%d Len=%d", got, s.Len())
					return
				}
				var q struct {
					Count int `json:"count"`
				}
				v := fmt.Sprintf("v%d", i%8)
				postJSON(t, ts.URL+"/v1/query", map[string]any{"pred": "s", "args": []*string{&v, nil}}, &q)
				var st struct {
					Generation uint64 `json:"generation"`
				}
				getJSON(t, ts.URL+"/v1/stats", &st)
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

// TestMetricsMaintenance: /v1/update answers with the layers its pass
// maintained and re-evaluated, and /v1/metrics sums them with the
// updates per strategy.  On the 8-vertex path, closing the cycle is a
// maintained insert; cutting it again deletes 36 of the 64 closure
// tuples, past a quarter, so the one stratum is re-evaluated;
// re-inserting a present
// edge is a noop.
func TestMetricsMaintenance(t *testing.T) {
	_, ts := newTestServer(t, core.LFP)
	edge := func(a, b string) []incr.Fact { return []incr.Fact{{Pred: "E", Args: []string{a, b}}} }
	for i, u := range []struct {
		body        map[string]any
		want        string
		maintained  int
		reevaluated int
	}{
		{map[string]any{"insert": edge("v7", "v0")}, "strata", 1, 0},
		{map[string]any{"delete": edge("v3", "v4")}, "strata", 0, 1},
		{map[string]any{"insert": edge("v0", "v1")}, "noop", 0, 0},
	} {
		var up struct {
			Stats incr.UpdateStats `json:"stats"`
		}
		if code := postJSON(t, ts.URL+"/v1/update", u.body, &up); code != 200 {
			t.Fatalf("update %d: status %d", i, code)
		}
		if st := up.Stats; st.Strategy != u.want || st.Maintained != u.maintained || st.Reevaluated != u.reevaluated {
			t.Errorf("update %d: %s with %d layers maintained, %d re-evaluated; want %s, %d, %d",
				i, st.Strategy, st.Maintained, st.Reevaluated, u.want, u.maintained, u.reevaluated)
		}
	}
	var met server.MetricsResponse
	getJSON(t, ts.URL+"/v1/metrics", &met)
	got := fmt.Sprintf("%v %d %d", met.Maintenance.Updates, met.Maintenance.Maintained, met.Maintenance.Reevaluated)
	if want := "map[alternation:0 noop:1 recompute:0 strata:2] 1 1"; got != want {
		t.Errorf("maintenance block %s, want %s", got, want)
	}
}
