// Package magic implements demand-driven query evaluation by
// magic-set rewriting: given a DATALOG¬ program and a query atom with
// a binding pattern (e.g. tc(c, ?), adornment "bf"), it produces a
// rewritten program whose fixpoint, restricted to the query predicate
// and filtered by the binding, is exactly the answer full evaluation
// would give — while deriving only the tuples the query can reach.
//
// The rewrite is the classic Beeri–Ramakrishnan construction with a
// left-to-right sideways-information-passing strategy, made
// stratification-aware in the style of Balbin et al.: predicates that
// appear under negation anywhere in the query's support — together
// with everything they depend on — are kept on their original rules
// and evaluated in full, because negating a magic-restricted subset
// would change the meaning.  Only the remaining, purely positive
// support is adorned and guarded by magic predicates.  By construction
// the rewritten program of a stratifiable program is stratifiable; if
// the defensive re-check ever fails, Rewrite returns an error, so a
// broken rewrite is reported and never evaluated.
//
// Magic seeds flow through a dedicated extensional seed predicate
// (m_q(X̄) ← m_q_seed(X̄)) rather than a fact rule, so the rewritten
// program depends only on (predicate, adornment) — never on the query
// constants — and can be cached and reused across queries, as
// internal/server does.
package magic

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
)

// Arg is one argument position of a query: bound to a constant, or
// free (a wildcard the evaluation must enumerate).
type Arg struct {
	IsBound bool
	Const   string // valid when IsBound
}

// Bound returns a bound query argument.
func Bound(c string) Arg { return Arg{IsBound: true, Const: c} }

// Free returns a free (wildcard) query argument.
func Free() Arg { return Arg{} }

// Query is a point query: a predicate with a constant or wildcard per
// argument position.
type Query struct {
	Pred string
	Args []Arg
}

// Pattern returns the binding pattern: true at bound positions.
func (q Query) Pattern() []bool {
	out := make([]bool, len(q.Args))
	for i, a := range q.Args {
		out[i] = a.IsBound
	}
	return out
}

// Adornment renders the query's binding pattern ("bf" style).
func (q Query) Adornment() string { return Adornment(q.Pattern()) }

// String renders the query in the form ParseQuery accepts.
func (q Query) String() string {
	if len(q.Args) == 0 {
		return q.Pred
	}
	parts := make([]string, len(q.Args))
	for i, a := range q.Args {
		if a.IsBound {
			parts[i] = ast.Const(a.Const).String()
		} else {
			parts[i] = "?"
		}
	}
	return q.Pred + "(" + strings.Join(parts, ",") + ")"
}

// Adornment renders a binding pattern as the usual adornment string:
// 'b' for bound positions, 'f' for free ones.
func Adornment(pattern []bool) string {
	var b strings.Builder
	for _, bound := range pattern {
		if bound {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// Decision records how one predicate of the query's support is
// evaluated under the rewrite.
type Decision struct {
	Pred    string
	Stratum int
	// Magic reports whether the predicate was adorned and guarded by
	// magic predicates (true) or kept on its original rules and
	// evaluated in full (false).
	Magic bool
	// Adornments lists the binding patterns generated for the predicate
	// (empty for full predicates).
	Adornments []string
	// Reason explains a full evaluation decision.
	Reason string
}

// Report is the Explain-style account of a rewrite: which predicates
// were adorned, which are evaluated in full and why.
type Report struct {
	Pred      string
	Adornment string
	Decisions []Decision
	// Rule counts of the rewritten program.
	AdornedRules, GuardRules, FullRules int
}

// Format renders the report for humans.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query %s adornment %s\n", r.Pred, r.Adornment)
	fmt.Fprintf(&b, "rules: %d adorned, %d guard, %d full\n",
		r.AdornedRules, r.GuardRules, r.FullRules)
	for _, d := range r.Decisions {
		if d.Magic {
			fmt.Fprintf(&b, "  stratum %d  %-12s magic %v\n", d.Stratum, d.Pred, d.Adornments)
		} else {
			fmt.Fprintf(&b, "  stratum %d  %-12s full (%s)\n", d.Stratum, d.Pred, d.Reason)
		}
	}
	return b.String()
}

// Rewritten is a prepared magic rewrite.  It depends only on the
// program, the query predicate, and the binding pattern — not on the
// query constants — so it can be cached keyed by (predicate,
// adornment) and reused across queries; seeds are injected per query
// through the extensional SeedPred relation (see Seed).
type Rewritten struct {
	// Program is the rewritten program.
	Program *ast.Program
	// Answer is the predicate of Program holding the query answers;
	// callers must still filter it by the binding pattern, since magic
	// sets may over-approximate the demanded bindings.
	Answer string
	// SeedPred is the extensional seed predicate.
	SeedPred string
	// Pattern is the binding pattern the rewrite was prepared for.
	Pattern []bool
	// Consts are the constants of the original program in intern
	// order.  Callers must intern them into the evaluation universe
	// before running Program: full evaluation would have interned them
	// all, and under the active-domain semantics unsafe rules range
	// over exactly that universe.
	Consts []string
	Report *Report
}

// Seed returns the seed fact for a concrete query: the seed predicate
// plus the query constants at bound positions, to be added to the
// database before evaluating Program.
func (rw *Rewritten) Seed(q Query) (pred string, args []string, err error) {
	if len(q.Args) != len(rw.Pattern) {
		return "", nil, fmt.Errorf("magic: query %s has %d args, rewrite prepared for %d", q.Pred, len(q.Args), len(rw.Pattern))
	}
	for i, a := range q.Args {
		if a.IsBound != rw.Pattern[i] {
			return "", nil, fmt.Errorf("magic: query %s does not match prepared adornment %s", q, Adornment(rw.Pattern))
		}
		if a.IsBound {
			args = append(args, a.Const)
		}
	}
	return rw.SeedPred, args, nil
}

// adornKey identifies one (predicate, adornment) job of the rewrite.
type adornKey struct {
	pred  string
	adorn string
}

// rewriter carries the state of one Rewrite call.
type rewriter struct {
	prog    *ast.Program
	arities map[string]int
	idb     map[string]bool
	full    map[string]bool // predicates evaluated in full (kept unrewritten)
	used    map[string]bool // predicate names in use (collision avoidance)
	names   map[string]string

	queue []adornKey
	done  map[adornKey]bool

	adorned, guards []ast.Rule
	guardSeen       map[string]bool
}

// Rewrite prepares the magic rewrite of prog for queries on pred with
// the given binding pattern.  It returns an error if the program is
// invalid or unstratifiable, or if pred is not an IDB predicate of the
// matching arity; extensional predicates need no rewrite (answer them
// by a direct database probe).  A rewrite that would need pred in full,
// or that loses stratifiability or validity, is an error too: none can
// happen for a stratifiable program, and a broken rewrite must be
// reported, never evaluated.
func Rewrite(prog *ast.Program, pred string, pattern []bool) (*Rewritten, error) {
	arities, err := prog.Validate()
	if err != nil {
		return nil, err
	}
	idb := prog.IDB()
	if !idb[pred] {
		return nil, fmt.Errorf("magic: %s is not an IDB predicate", pred)
	}
	if arities[pred] != len(pattern) {
		return nil, fmt.Errorf("magic: %s has arity %d, binding pattern has %d positions", pred, arities[pred], len(pattern))
	}
	strat, err := prog.Stratify()
	if err != nil {
		return nil, err
	}

	reach := reachable(prog, pred)
	full := fullSet(prog, reach, idb)

	rw := &rewriter{
		prog:      prog,
		arities:   arities,
		idb:       idb,
		full:      full,
		used:      make(map[string]bool),
		names:     make(map[string]string),
		done:      make(map[adornKey]bool),
		guardSeen: make(map[string]bool),
	}
	for p := range arities {
		rw.used[p] = true
	}

	if full[pred] {
		// The query predicate would support a negated predicate it
		// reaches, closing a cycle through negation.
		return nil, fmt.Errorf("magic: query predicate %s must be evaluated in full (it supports a negated predicate)", pred)
	}

	seed := rw.freshName("m_" + pred + "_" + Adornment(pattern) + "_seed")
	rw.enqueue(pred, pattern)
	for len(rw.queue) > 0 {
		job := rw.queue[0]
		rw.queue = rw.queue[1:]
		rw.rewritePred(job)
	}

	// Seed rule: the magic set of the query adornment is fed from the
	// extensional seed relation, so the program is query-constant free.
	nbound := 0
	for _, b := range pattern {
		if b {
			nbound++
		}
	}
	seedVars := make([]ast.Term, nbound)
	for i := range seedVars {
		seedVars[i] = ast.Var(fmt.Sprintf("MS%d", i))
	}
	seedRule := ast.NewRule(
		ast.NewAtom(rw.magicName(pred, Adornment(pattern)), seedVars...),
		ast.Pos(ast.NewAtom(seed, seedVars...)))

	var rules []ast.Rule
	rules = append(rules, seedRule)
	rules = append(rules, rw.guards...)
	rules = append(rules, rw.adorned...)
	nfull := 0
	for _, r := range prog.Rules {
		if reach[r.Head.Pred] && full[r.Head.Pred] {
			rules = append(rules, r)
			nfull++
		}
	}
	out := &ast.Program{Rules: rules}

	report := &Report{
		Pred:         pred,
		Adornment:    Adornment(pattern),
		AdornedRules: len(rw.adorned),
		GuardRules:   len(rw.guards) + 1, // + the seed rule
		FullRules:    nfull,
		Decisions:    rw.decisions(reach, strat),
	}

	// Defensive re-check: the construction preserves stratifiability
	// (negated predicates and their support are untouched), but a
	// correct program beats a clever one.
	if _, err := out.Stratify(); err != nil {
		return nil, fmt.Errorf("magic: rewritten program lost stratifiability: %w", err)
	}
	if _, err := out.Validate(); err != nil {
		return nil, fmt.Errorf("magic: rewritten program failed validation: %w", err)
	}

	return &Rewritten{
		Program:  out,
		Answer:   rw.adornedName(pred, Adornment(pattern)),
		SeedPred: seed,
		Pattern:  append([]bool(nil), pattern...),
		Consts:   prog.Constants(),
		Report:   report,
	}, nil
}

// reachable returns the IDB predicates whose rules can influence pred:
// pred itself plus everything reachable through positive or negated
// body atoms of reachable rules.
func reachable(prog *ast.Program, pred string) map[string]bool {
	idb := prog.IDB()
	byHead := make(map[string][]ast.Rule)
	for _, r := range prog.Rules {
		byHead[r.Head.Pred] = append(byHead[r.Head.Pred], r)
	}
	reach := map[string]bool{pred: true}
	queue := []string{pred}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, r := range byHead[p] {
			for _, l := range r.Body {
				if l.Kind != ast.LitPos && l.Kind != ast.LitNeg {
					continue
				}
				if b := l.Atom.Pred; idb[b] && !reach[b] {
					reach[b] = true
					queue = append(queue, b)
				}
			}
		}
	}
	return reach
}

// fullSet returns the reachable IDB predicates that must be evaluated
// in full: every predicate appearing under negation in a reachable
// rule, closed under dependencies — a full predicate's value needs the
// full values of everything it reads, so magic restriction cannot be
// pushed below a negation.
func fullSet(prog *ast.Program, reach, idb map[string]bool) map[string]bool {
	full := make(map[string]bool)
	for _, r := range prog.Rules {
		if !reach[r.Head.Pred] {
			continue
		}
		for _, l := range r.Body {
			if l.Kind == ast.LitNeg && idb[l.Atom.Pred] {
				full[l.Atom.Pred] = true
			}
		}
	}
	// Close under dependencies (positive and negative): all support of
	// a full predicate is full.
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			if !full[r.Head.Pred] {
				continue
			}
			for _, l := range r.Body {
				if l.Kind != ast.LitPos && l.Kind != ast.LitNeg {
					continue
				}
				if b := l.Atom.Pred; idb[b] && !full[b] {
					full[b] = true
					changed = true
				}
			}
		}
	}
	return full
}

// enqueue schedules the (pred, pattern) adornment job once.
func (rw *rewriter) enqueue(pred string, pattern []bool) {
	k := adornKey{pred, Adornment(pattern)}
	if rw.done[k] {
		return
	}
	rw.done[k] = true
	rw.queue = append(rw.queue, k)
}

// freshName returns base, uniquified against every name in use.
func (rw *rewriter) freshName(base string) string {
	name := base
	for rw.used[name] {
		name += "_"
	}
	rw.used[name] = true
	return name
}

// adornedName returns the predicate name of pred adorned with adorn,
// allocating it on first use.
func (rw *rewriter) adornedName(pred, adorn string) string {
	key := "a/" + pred + "/" + adorn
	if n, ok := rw.names[key]; ok {
		return n
	}
	n := rw.freshName(pred + "_" + adorn)
	rw.names[key] = n
	return n
}

// magicName returns the magic predicate name for (pred, adorn),
// allocating it on first use.
func (rw *rewriter) magicName(pred, adorn string) string {
	key := "m/" + pred + "/" + adorn
	if n, ok := rw.names[key]; ok {
		return n
	}
	n := rw.freshName("m_" + pred + "_" + adorn)
	rw.names[key] = n
	return n
}

// rewritePred emits the adorned rules (and their guard rules) for one
// (predicate, adornment) job.
func (rw *rewriter) rewritePred(job adornKey) {
	pattern := make([]bool, len(job.adorn))
	for i := range job.adorn {
		pattern[i] = job.adorn[i] == 'b'
	}
	for _, r := range rw.prog.Rules {
		if r.Head.Pred != job.pred {
			continue
		}
		rw.rewriteRule(job, pattern, r)
	}
}

// rewriteRule rewrites one rule of an adornment job: the head moves to
// the adorned predicate, the magic guard literal is prepended, every
// magic-eligible positive body literal is replaced by its adorned
// version, and for each such literal a guard rule passes the bindings
// available at that point (the left-to-right SIP) into its magic
// predicate.
func (rw *rewriter) rewriteRule(job adornKey, pattern []bool, r ast.Rule) {
	bound := make(map[string]bool)
	var magicArgs []ast.Term
	for i, b := range pattern {
		if !b {
			continue
		}
		t := r.Head.Args[i]
		magicArgs = append(magicArgs, t)
		if t.IsVar() {
			bound[t.Name] = true
		}
	}
	body := []ast.Literal{ast.Pos(ast.NewAtom(rw.magicName(job.pred, job.adorn), magicArgs...))}

	for _, l := range r.Body {
		switch l.Kind {
		case ast.LitPos:
			p := l.Atom.Pred
			if rw.idb[p] && !rw.full[p] {
				sub := make([]bool, len(l.Atom.Args))
				var boundArgs []ast.Term
				for i, t := range l.Atom.Args {
					if !t.IsVar() || bound[t.Name] {
						sub[i] = true
						boundArgs = append(boundArgs, t)
					}
				}
				adorn := Adornment(sub)
				rw.emitGuard(ast.NewRule(ast.NewAtom(rw.magicName(p, adorn), boundArgs...), body...))
				rw.enqueue(p, sub)
				body = append(body, ast.Pos(ast.NewAtom(rw.adornedName(p, adorn), l.Atom.Args...)))
			} else {
				body = append(body, l)
			}
			for _, t := range l.Atom.Args {
				if t.IsVar() {
					bound[t.Name] = true
				}
			}
		case ast.LitNeg:
			// Negated predicates are full (or extensional) by
			// construction; the literal is kept verbatim and binds
			// nothing — under the active-domain semantics its private
			// variables range over the universe, they are not outputs.
			body = append(body, l)
		case ast.LitEq:
			body = append(body, l)
			// An equality propagates a binding from either side.
			lb := !l.Left.IsVar() || bound[l.Left.Name]
			rb := !l.Right.IsVar() || bound[l.Right.Name]
			if lb || rb {
				if l.Left.IsVar() {
					bound[l.Left.Name] = true
				}
				if l.Right.IsVar() {
					bound[l.Right.Name] = true
				}
			}
		case ast.LitNeq:
			body = append(body, l)
		}
	}
	rw.adorned = append(rw.adorned, ast.Rule{
		Head: ast.NewAtom(rw.adornedName(job.pred, job.adorn), r.Head.Args...),
		Body: body,
	})
}

// emitGuard appends a guard rule, deduplicating identical ones (two
// source rules with the same prefix generate the same guard) and
// dropping tautologies: a left-recursive literal whose bound
// arguments are exactly the head's yields m(X̄) ← m(X̄), which derives
// nothing.
func (rw *rewriter) emitGuard(g ast.Rule) {
	if len(g.Body) == 1 && g.Body[0].Kind == ast.LitPos && g.Body[0].Atom.String() == g.Head.String() {
		return
	}
	s := g.String()
	if rw.guardSeen[s] {
		return
	}
	rw.guardSeen[s] = true
	rw.guards = append(rw.guards, g)
}

// decisions summarizes the per-predicate outcomes for the report.
func (rw *rewriter) decisions(reach map[string]bool, strat *ast.Stratification) []Decision {
	adorns := make(map[string][]string)
	for k := range rw.done {
		adorns[k.pred] = append(adorns[k.pred], k.adorn)
	}
	var out []Decision
	for _, p := range sortedPreds(reach) {
		d := Decision{Pred: p, Stratum: strat.Level[p]}
		switch {
		case rw.full[p]:
			d.Reason = "appears under negation or supports a negated predicate"
		case len(adorns[p]) > 0:
			d.Magic = true
			d.Adornments = adorns[p]
			sort.Strings(d.Adornments)
		default:
			d.Reason = "unreached by the query's bindings"
		}
		out = append(out, d)
	}
	return out
}

func sortedPreds(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
