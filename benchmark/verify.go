// verify.go — checks every recorded reply against the oracle.  Replies
// carry the generation they were answered from and updates the
// generation that first holds them, so the verifier can rebuild the
// exact EDB each read saw, whatever the interleaving of the clients.
package main

import (
	"fmt"
	"sort"
)

// expected is the oracle's digest of o's answer over model.
func expected(model map[string]*rel, o *op) answer {
	switch o.kind {
	case opStats:
		counts := make(map[string]int, len(model))
		for pred, r := range model {
			counts[pred] = r.count()
		}
		return digestCounts(counts)
	case opRelation:
		r := model[o.pred]
		all := make([]int, r.arity)
		for i := range all {
			all[i] = -1
		}
		return r.digest(all)
	default:
		return model[o.pred].digest(o.pattern)
	}
}

// verifyReads replays the acknowledged updates over state in
// generation order and compares every recorded read with the oracle at
// its generation.  It returns the number of mismatches and the first
// one; state is left at the last generation.
func verifyReads(spec *serveSpec, state *edb, ops []op, rec *recorder) (int, error) {
	var updates []updateRec
	var reads []readRec
	for c := 0; c < clients; c++ {
		updates = append(updates, rec.updates[c]...)
		reads = append(reads, rec.reads[c]...)
	}
	sort.Slice(updates, func(i, j int) bool {
		if updates[i].gen != updates[j].gen {
			return updates[i].gen < updates[j].gen
		}
		return updates[i].op < updates[j].op
	})
	sort.Slice(reads, func(i, j int) bool {
		if reads[i].gen != reads[j].gen {
			return reads[i].gen < reads[j].gen
		}
		return reads[i].op < reads[j].op
	})

	bad := 0
	var first error
	var model map[string]*rel
	ui := 0
	advance := func(gen uint64) {
		for ui < len(updates) && updates[ui].gen <= gen {
			o := &ops[updates[ui].op]
			state.apply(o.ins, o.del)
			model = nil
			ui++
		}
	}
	for _, r := range reads {
		advance(r.gen)
		if model == nil {
			model = spec.model(state)
		}
		o := &ops[r.op]
		if want := expected(model, o); want != r.got {
			bad++
			if first == nil {
				first = fmt.Errorf("op %d %s %s %s at generation %d: got %d tuples (digest %x), the oracle has %d (digest %x)",
					r.op, o.method, o.path, o.body, r.gen, r.got.n, r.got.h, want.n, want.h)
			}
		}
	}
	advance(^uint64(0))
	return bad, first
}

// verifyRelations compares every relation the daemon publishes, read
// through GET /v1/relation, with the oracle over state.
func verifyRelations(spec *serveSpec, state *edb, t *target) error {
	model := spec.model(state)
	preds := make([]string, 0, len(model))
	for pred := range model {
		preds = append(preds, pred)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		o := relationOp(pred)(nil)
		_, got, err := t.ask(&o, spec.n)
		if err != nil {
			return err
		}
		if want := expected(model, &o); want != got {
			return fmt.Errorf("relation %s: the daemon has %d tuples (digest %x), the oracle %d (digest %x)",
				pred, got.n, got.h, want.n, want.h)
		}
	}
	return nil
}
