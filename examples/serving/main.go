// Serving walkthrough: the production path of the daemon, in-process.
//
// Four stops:
//  1. build a server over a maintained program,
//  2. read endpoints — stats, relation dumps, pattern queries — all
//     answered from immutable snapshots,
//  3. group commit: concurrent updates coalesce into shared
//     maintainer passes; each response reports how many requests its
//     pass carried,
//  4. /v1/metrics: QPS, latency percentiles, queue and cache health.
//
// The same server runs standalone as `cmd/serve`; the harness under
// `benchmark/` drives it with sustained mixed traffic (see README,
// "Serving & load testing").
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/server"
)

func main() {
	// --- 1. A server over maintained transitive closure.
	prog := parser.MustProgram(`
s(X,Y) :- E(X,Y).
s(X,Y) :- E(X,Z), s(Z,Y).
`)
	srv, err := server.New(prog, graphs.Path(8).Database(), core.Inflationary)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// --- 2. Reads come from immutable snapshots.
	var stats server.StatsResponse
	getJSON(ts.URL+"/v1/stats", &stats)
	fmt.Printf("serving %s over %d relations; |s| = %d\n",
		stats.Semantics, len(stats.Relations), stats.Relations["s"])

	var q server.QueryResponse
	postJSON(ts.URL+"/v1/query", server.QueryRequest{
		Pred: "s", Args: []*string{strPtr("v0"), nil}, // s(v0, ?)
	}, &q)
	fmt.Printf("s(v0,_) has %d answers at generation %d\n", q.Count, q.Generation)

	// --- 3. Group commit: 16 concurrent updates, few maintainer passes.
	var wg sync.WaitGroup
	coalesced := make([]int, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var resp server.UpdateResponse
			postJSON(ts.URL+"/v1/update", server.UpdateRequest{
				Insert: []incr.Fact{{Pred: "E", Args: []string{fmt.Sprintf("n%d", w), "v0"}}},
			}, &resp)
			coalesced[w] = resp.Coalesced
		}(w)
	}
	wg.Wait()
	max := 0
	for _, c := range coalesced {
		if c > max {
			max = c
		}
	}
	fmt.Printf("16 concurrent updates committed; largest shared pass carried %d of them\n", max)

	// --- 4. The server watches itself.
	var m server.MetricsResponse
	getJSON(ts.URL+"/v1/metrics", &m)
	fmt.Printf("queue: %d updates in %d passes (mean batch %.1f, %d rejected)\n",
		m.Queue.Enqueued, m.Queue.Batches, m.Queue.MeanBatch, m.Queue.Rejected)
	fmt.Printf("update endpoint: %d requests, p99 %.0fµs\n",
		m.Endpoints["update"].Requests, m.Endpoints["update"].Latency.P99Us)
}

func strPtr(s string) *string { return &s }

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body, out any) {
	buf, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: %s (%s)", url, resp.Status, e.Error.Code)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
