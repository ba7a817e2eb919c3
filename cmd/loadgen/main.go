// Command loadgen drives mixed traffic at a running serve daemon and
// reports client-side throughput and latency percentiles.
//
// It opens -conns worker connections, each issuing a -mix-weighted
// stream of requests for -duration (optionally paced to an aggregate
// -qps target):
//
//	read    GET  /v1/stats            snapshot-pointer read
//	query   POST /v1/query            one bound column, rest wildcards
//	update  POST /v1/update           toggle a worker-private EDB edge
//
// Query constants are discovered from the server itself (the update
// predicate's tuples), so loadgen needs no knowledge of the data set.
// Results print in `go test -bench` format — one Benchmark line per
// traffic class plus one for the server's group-commit queue taken
// from a final /v1/metrics scrape — so benchstat can compare runs:
//
//	loadgen -addr http://localhost:8090 -conns 16 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

type options struct {
	addr       string
	conns      int
	duration   time.Duration
	qps        float64
	mix        string
	queryPred  string
	updatePred string
	seed       int64
	retries    int
}

func newFlags(name string, opts *options) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&opts.addr, "addr", "http://localhost:8090", "base URL of the serve daemon")
	fs.IntVar(&opts.conns, "conns", 16, "concurrent worker connections")
	fs.DurationVar(&opts.duration, "duration", 10*time.Second, "how long to drive traffic")
	fs.Float64Var(&opts.qps, "qps", 0, "aggregate request-rate target (0 = unthrottled)")
	fs.StringVar(&opts.mix, "mix", "read=40,query=40,update=20", "traffic mix weights")
	fs.StringVar(&opts.queryPred, "query-pred", "", "predicate for /v1/query (default: largest relation)")
	fs.StringVar(&opts.updatePred, "update-pred", "", "EDB predicate for /v1/update (default: smallest relation)")
	fs.Int64Var(&opts.seed, "seed", 1, "RNG seed for mix scheduling and constant choice")
	fs.IntVar(&opts.retries, "retries", 3, "retries per 429-rejected request, honoring Retry-After with capped jittered backoff (0 = give up immediately)")
	return fs
}

// Traffic classes, in report order.
var classes = []string{"read", "query", "update"}

// classRec accumulates one class's client-side observations.
type classRec struct {
	count    metrics.Counter
	errors   metrics.Counter
	rejected metrics.Counter // 429s still rejected after retries ran out
	retries  metrics.Counter // backoff-and-retry attempts after a 429
	lat      metrics.Histogram
}

func main() {
	var opts options
	fs := newFlags("loadgen", &opts)
	fs.Parse(os.Args[1:])

	weights, err := parseMix(opts.mix)
	if err != nil {
		fatal(err)
	}
	target, err := discover(&opts)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: %d conns for %v against %s; query=%s/%d update=%s/%d, %d constants\n",
		opts.conns, opts.duration, opts.addr,
		target.queryPred, target.queryArity, target.updatePred, target.updateArity, len(target.consts))

	recs := make(map[string]*classRec, len(classes))
	for _, c := range classes {
		recs[c] = &classRec{}
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(opts.duration)
	for w := 0; w < opts.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w, &opts, weights, target, recs, deadline)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(os.Stdout, &opts, recs, elapsed)
}

// target is what discovery learned about the served program.
type target struct {
	queryPred   string
	queryArity  int
	updatePred  string
	updateArity int
	consts      []string
}

// discover asks /v1/stats for the relation map and /v1/relation for
// arities and a constant pool, filling any predicates the flags left
// unset: queries go to the largest relation (the interesting IDB),
// updates to the smallest (typically the EDB input).
func discover(opts *options) (*target, error) {
	var stats struct {
		Relations map[string]int `json:"relations"`
	}
	if err := getJSON(opts.addr+"/v1/stats", &stats); err != nil {
		return nil, fmt.Errorf("discovering relations: %w", err)
	}
	if len(stats.Relations) == 0 {
		return nil, fmt.Errorf("server at %s has no relations", opts.addr)
	}
	t := &target{queryPred: opts.queryPred, updatePred: opts.updatePred}
	for pred, size := range stats.Relations {
		if opts.queryPred == "" && (t.queryPred == "" || size > stats.Relations[t.queryPred]) {
			t.queryPred = pred
		}
		if opts.updatePred == "" && (t.updatePred == "" || size < stats.Relations[t.updatePred]) {
			t.updatePred = pred
		}
	}
	var rel struct {
		Arity  int        `json:"arity"`
		Tuples [][]string `json:"tuples"`
	}
	if err := getJSON(opts.addr+"/v1/relation?pred="+t.updatePred, &rel); err != nil {
		return nil, fmt.Errorf("reading %s: %w", t.updatePred, err)
	}
	t.updateArity = rel.Arity
	seen := map[string]bool{}
	for _, tup := range rel.Tuples {
		for _, c := range tup {
			if !seen[c] {
				seen[c] = true
				t.consts = append(t.consts, c)
			}
		}
	}
	if len(t.consts) == 0 {
		t.consts = []string{"lg_seed"}
	}
	if err := getJSON(opts.addr+"/v1/relation?pred="+t.queryPred, &rel); err != nil {
		return nil, fmt.Errorf("reading %s: %w", t.queryPred, err)
	}
	t.queryArity = rel.Arity
	return t, nil
}

// worker issues one connection's share of the traffic until deadline.
func worker(w int, opts *options, weights map[string]int, tg *target, recs map[string]*classRec, deadline time.Time) {
	rng := rand.New(rand.NewSource(opts.seed + int64(w)))
	deck := buildDeck(weights, rng)
	client := &http.Client{Timeout: 30 * time.Second}

	// Aggregate pacing split evenly across connections.
	var tick *time.Ticker
	if opts.qps > 0 {
		tick = time.NewTicker(time.Duration(float64(opts.conns) / opts.qps * float64(time.Second)))
		defer tick.Stop()
	}

	inserted := false // state of this worker's private update edge
	for i := 0; time.Now().Before(deadline); i++ {
		if tick != nil {
			select {
			case <-tick.C:
			case <-time.After(time.Until(deadline)):
				return
			}
		}
		class := deck[i%len(deck)]
		rec := recs[class]
		start := time.Now()
		status, retryAfter, err := doRequest(client, opts.addr, class, w, rng, tg, &inserted)
		// A 429 is admission control, not failure: back off as the
		// server asked (Retry-After) and retry, up to -retries times.
		for attempt := 0; err == nil && status == http.StatusTooManyRequests && attempt < opts.retries; attempt++ {
			wait := backoff(attempt, retryAfter, rng)
			if time.Now().Add(wait).After(deadline) {
				break
			}
			time.Sleep(wait)
			rec.retries.Inc()
			status, retryAfter, err = doRequest(client, opts.addr, class, w, rng, tg, &inserted)
		}
		rec.lat.Observe(time.Since(start))
		rec.count.Inc()
		switch {
		case err != nil:
			rec.errors.Inc()
		case status == http.StatusTooManyRequests:
			rec.rejected.Inc()
		case status >= 400:
			rec.errors.Inc()
		}
	}
}

// backoff picks the wait before retrying a 429: the server's
// Retry-After if it sent one, otherwise 50ms doubled per attempt; both
// capped at 2s and jittered into [wait/2, wait] so synchronized
// retriers spread out instead of re-colliding.
func backoff(attempt int, retryAfter string, rng *rand.Rand) time.Duration {
	wait := 50 * time.Millisecond << min(attempt, 5)
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		wait = time.Duration(secs) * time.Second
	}
	if maxWait := 2 * time.Second; wait > maxWait {
		wait = maxWait
	}
	half := wait / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// buildDeck expands the weights into a shuffled schedule, so each
// worker realizes the mix exactly over every len(deck) requests.
func buildDeck(weights map[string]int, rng *rand.Rand) []string {
	var deck []string
	for _, c := range classes {
		for i := 0; i < weights[c]; i++ {
			deck = append(deck, c)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func doRequest(client *http.Client, addr, class string, w int, rng *rand.Rand, tg *target, inserted *bool) (int, string, error) {
	switch class {
	case "read":
		return do(client, http.MethodGet, addr+"/v1/stats", nil)
	case "query":
		args := make([]*string, tg.queryArity)
		if tg.queryArity > 0 {
			c := tg.consts[rng.Intn(len(tg.consts))]
			args[0] = &c
		}
		return do(client, http.MethodPost, addr+"/v1/query", map[string]any{
			"pred": tg.queryPred, "args": args,
		})
	case "update":
		// Toggle a worker-private fact built from pool constants, so the
		// database size stays bounded for arbitrarily long runs.
		fact := make([]string, tg.updateArity)
		if tg.updateArity > 0 {
			fact[0] = fmt.Sprintf("lg_%d", w)
		}
		for i := 1; i < tg.updateArity; i++ {
			fact[i] = tg.consts[rng.Intn(len(tg.consts))]
		}
		op := "insert"
		if *inserted {
			op = "delete"
		}
		status, retryAfter, err := do(client, http.MethodPost, addr+"/v1/update", map[string]any{
			op: []map[string]any{{"pred": tg.updatePred, "args": fact}},
		})
		if err == nil && status == http.StatusOK {
			*inserted = !*inserted
		}
		return status, retryAfter, err
	}
	return 0, "", fmt.Errorf("unknown class %q", class)
}

// do issues one request and returns the status plus any Retry-After
// header (the backoff hint on 429).
func do(client *http.Client, method, url string, body any) (int, string, error) {
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, "", err
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	// Drain so the connection is reused.
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// report prints the run in `go test -bench` format, then appends the
// server's own group-commit counters from a /v1/metrics scrape.
func report(out io.Writer, opts *options, recs map[string]*classRec, elapsed time.Duration) {
	fmt.Fprintf(out, "goos: %s\ngoarch: %s\npkg: repro/cmd/loadgen\n", runtime.GOOS, runtime.GOARCH)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var total int64
	for _, c := range classes {
		r := recs[c]
		n := r.count.Load()
		total += n
		if n == 0 {
			continue
		}
		fmt.Fprintf(out, "BenchmarkServeLoad/%s-%d \t%d\t%.0f ns/op\t%.1f qps\t%.1f p50-us\t%.1f p90-us\t%.1f p99-us\t%d errors\t%d rejected\t%d retries\n",
			c, opts.conns, n, float64(r.lat.Mean()), float64(n)/elapsed.Seconds(),
			us(r.lat.Quantile(0.50)), us(r.lat.Quantile(0.90)), us(r.lat.Quantile(0.99)),
			r.errors.Load(), r.rejected.Load(), r.retries.Load())
	}
	fmt.Fprintf(out, "BenchmarkServeLoad/total-%d \t%d\t%.0f ns/op\t%.1f qps\n",
		opts.conns, total, elapsed.Seconds()*1e9/float64(max64(total, 1)), float64(total)/elapsed.Seconds())

	var m struct {
		Queue struct {
			Enqueued  int64   `json:"enqueued"`
			Rejected  int64   `json:"rejected"`
			Batches   int64   `json:"batches"`
			MaxBatch  int64   `json:"max_batch"`
			MeanBatch float64 `json:"mean_batch"`
		} `json:"queue"`
	}
	if err := getJSON(opts.addr+"/v1/metrics", &m); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: final metrics scrape failed: %v\n", err)
		return
	}
	if m.Queue.Batches > 0 {
		fmt.Fprintf(out, "BenchmarkServeQueue-%d \t%d\t%.0f ns/op\t%.2f mean-batch\t%d max-batch\t%d rejected\n",
			opts.conns, m.Queue.Enqueued, 0.0, m.Queue.MeanBatch, m.Queue.MaxBatch, m.Queue.Rejected)
	}
}

// parseMix parses "read=40,query=40,update=20".
func parseMix(s string) (map[string]int, error) {
	weights := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not name=weight", part)
		}
		known := false
		for _, c := range classes {
			known = known || c == name
		}
		if !known {
			return nil, fmt.Errorf("unknown traffic class %q (want %s)", name, strings.Join(classes, "|"))
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight %q is not a non-negative integer", val)
		}
		weights[name] = w
	}
	totalW := 0
	for _, w := range weights {
		totalW += w
	}
	if totalW == 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", s)
	}
	return weights, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
