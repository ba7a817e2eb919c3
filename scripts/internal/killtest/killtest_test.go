package killtest

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/server"
)

// TestRecomputeMatchesDaemon checks the invariant both harnesses rest
// on: a live daemon's DaemonState renders exactly what Recompute
// derives from scratch over the same facts, before and after updates
// posted with PostUpdate, under every trial program.
func TestRecomputeMatchesDaemon(t *testing.T) {
	for _, sem := range SemOrder {
		t.Run(sem, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			facts := SeedFacts(sem, rng)
			db, err := parser.Facts(facts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.ParseSemantics(sem)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(parser.MustProgram(Programs[sem]), db, s)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { ts.Close(); srv.Close() })
			if err := WaitReady(ts.URL); err != nil {
				t.Fatal(err)
			}

			check := func(when string) {
				t.Helper()
				got, err := DaemonState(ts.URL)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Recompute(Programs[sem], sem, facts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: daemon\n%s\nrecompute\n%s", when, got, want)
				}
			}
			check("seed facts")
			for i := 0; i < 4; i++ {
				edge := RandomEdge(rng)
				if err := PostUpdate(http.DefaultClient, ts.URL, edge, true); err != nil {
					t.Fatal(err)
				}
				facts += "E(" + strings.Join(edge, ",") + ").\n"
			}
			check("after updates")
		})
	}
}
