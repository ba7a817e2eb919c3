// client.go — the closed-loop load: two client goroutines on two
// persistent connections draw operations from one shared sequence,
// each waiting for its reply before taking the next.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load model's concurrency: nproc is 2 on the reference
// machine, and the daemon runs with GOMAXPROCS=2.
const clients = 2

// target is what the load is sent to: a daemon over loopback, or an
// in-process handler in the smoke test.
type target struct {
	base string
	hcs  [clients]*http.Client
}

// newTarget gives every client its own transport holding one
// keep-alive connection.
func newTarget(base string) *target {
	t := &target{base: base}
	for i := range t.hcs {
		t.hcs[i] = &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				IdleConnTimeout:     time.Minute,
			},
		}
	}
	return t
}

func (t *target) close() {
	for _, hc := range t.hcs {
		hc.CloseIdleConnections()
	}
}

// readRec is one read's answer, kept for the verifier.
type readRec struct {
	op  int // index into the sequence
	gen uint64
	got answer
}

// updateRec is one acknowledged update and the generation that holds it.
type updateRec struct {
	op  int
	gen uint64
}

// recorder accumulates what the verifier needs across warm-up and
// load.  Each client appends to its own slices.
type recorder struct {
	n       int // vertices: reply constants map to ids below n
	reads   [clients][]readRec
	updates [clients][]updateRec
	failed  atomic.Int64
	firstMu sync.Mutex
	first   error // the first failure, for the log
}

func (r *recorder) fail(err error) {
	r.failed.Add(1)
	r.firstMu.Lock()
	if r.first == nil {
		r.first = err
	}
	r.firstMu.Unlock()
}

// window is what one recorded window measured.
type window struct {
	ops     int
	elapsed time.Duration
	read    []time.Duration
	update  []time.Duration
}

func (w *window) throughput() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// runWindow sends ops[lo:hi] through both clients and returns when
// every reply is in.  A latency is the time from building the request
// to reading the last body byte; decoding and digesting the answer
// happens after the clock stops.
func (t *target) runWindow(ops []op, lo, hi int, rec *recorder, spans *spanLog) window {
	return t.runWindowWith(clients, ops, lo, hi, rec, spans)
}

// runWindowWith is runWindow with only the first conns clients active;
// the traced run uses one to see latency without the other client.
func (t *target) runWindowWith(conns int, ops []op, lo, hi int, rec *recorder, spans *spanLog) window {
	var next atomic.Int64
	next.Store(int64(lo))
	var perClient [clients]window
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			w := &perClient[c]
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				o := &ops[i]
				t0 := time.Now()
				status, err := t.send(t.hcs[c], o, &buf)
				lat := time.Since(t0)
				if o.isUpdate() {
					w.update = append(w.update, lat)
				} else {
					w.read = append(w.read, lat)
				}
				if spans != nil {
					spans.add(spanName(o), t0, t0.Add(lat), 0, i)
				}
				if err != nil {
					rec.fail(fmt.Errorf("op %d %s %s: %w", i, o.method, o.path, err))
					continue
				}
				if status/100 != 2 {
					rec.fail(fmt.Errorf("op %d %s %s: status %d: %s", i, o.method, o.path, status, bytes.TrimSpace(buf.Bytes())))
					continue
				}
				if err := rec.record(c, i, o, buf.Bytes()); err != nil {
					rec.fail(fmt.Errorf("op %d %s %s: %w", i, o.method, o.path, err))
				}
			}
		}(c)
	}
	wg.Wait()
	w := window{ops: hi - lo, elapsed: time.Since(start)}
	for c := range perClient {
		w.read = append(w.read, perClient[c].read...)
		w.update = append(w.update, perClient[c].update...)
	}
	return w
}

func spanName(o *op) string {
	switch o.kind {
	case opUpdate:
		return "http.update"
	case opStats:
		return "http.stats"
	case opRelation:
		return "http.relation"
	}
	if o.magic {
		return "http.query_magic"
	}
	return "http.query"
}

// send issues one request and reads the whole reply into buf.
func (t *target) send(hc *http.Client, o *op, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method, t.base+o.path, body)
	if err != nil {
		return 0, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// tuplesBody is the shape /v1/query and /v1/relation share.
type tuplesBody struct {
	Generation uint64     `json:"generation"`
	Tuples     [][]string `json:"tuples"`
}

type generationBody struct {
	Generation uint64 `json:"generation"`
}

// record digests one reply for the verifier.
func (r *recorder) record(c, i int, o *op, body []byte) error {
	gen, got, err := digestReply(o, body, r.n)
	if err != nil {
		return err
	}
	if o.isUpdate() {
		r.updates[c] = append(r.updates[c], updateRec{op: i, gen: gen})
	} else {
		r.reads[c] = append(r.reads[c], readRec{op: i, gen: gen, got: got})
	}
	return nil
}

// digestReply decodes a 2xx reply to o: its generation and, for a
// read, the digest of its answer over an n-vertex universe.
func digestReply(o *op, body []byte, n int) (uint64, answer, error) {
	switch o.kind {
	case opUpdate:
		var u generationBody
		err := json.Unmarshal(body, &u)
		return u.Generation, answer{}, err
	case opStats:
		var st statsBody
		err := json.Unmarshal(body, &st)
		return st.Generation, digestCounts(st.Relations), err
	default:
		var tb tuplesBody
		if err := json.Unmarshal(body, &tb); err != nil {
			return 0, answer{}, err
		}
		got, err := digestTuples(tb.Tuples, n)
		return tb.Generation, got, err
	}
}

// ask sends one op outside any window, on the first client's
// connection, and returns its generation and digested answer.
func (t *target) ask(o *op, n int) (uint64, answer, error) {
	var buf bytes.Buffer
	status, err := t.send(t.hcs[0], o, &buf)
	if err != nil {
		return 0, answer{}, fmt.Errorf("%s %s: %w", o.method, o.path, err)
	}
	if status/100 != 2 {
		return 0, answer{}, fmt.Errorf("%s %s: status %d: %s", o.method, o.path, status, bytes.TrimSpace(buf.Bytes()))
	}
	return digestReply(o, buf.Bytes(), n)
}

// digestTuples maps named tuples back to ids over an n-vertex universe
// and digests them the way rel.digest does.
func digestTuples(tuples [][]string, n int) (answer, error) {
	var a answer
	for _, t := range tuples {
		id := 0
		for _, name := range t {
			v, ok := vindex(name)
			if !ok || v >= n {
				return a, fmt.Errorf("reply names an unknown constant %q", name)
			}
			id = id*n + v
		}
		a.add(id)
	}
	return a, nil
}

// digestCounts digests a /v1/stats relation-size map.
func digestCounts(counts map[string]int) answer {
	var a answer
	for pred, n := range counts {
		h := fnv.New64a()
		h.Write([]byte(pred))
		a.n += n
		a.h += mix64(h.Sum64()) * uint64(n)
	}
	return a
}
