package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// TestCrashSim runs the store on memFS and checks it against the
// paper's fixpoints: under each semantics the state is a function of
// the EDB, so a recovery is right exactly when it rebuilds the state a
// from-scratch incr.New builds over the EDB history it must keep.
//
// A trial maintains a small program, logging every batch, and drives
// Append, Rotate with the checkpoint capture, WriteCheckpoint (with
// appends between the two), ReadWAL, and a follower's InstallSnapshot
// and SaveCursor.  Mutating op k fails (see memFS), and soon after the
// program crashes and reboots through Open's recovery.  A second run of
// updates then crashes at a random op and reboots again.  Each boot
// checks:
//
//   - under "always", the state is that of the seed facts plus exactly
//     the acknowledged batches; under "off", plus some prefix of the
//     appended batches no shorter than what the last boot recovered;
//   - the follower's snapshot and cursor are the last ones installed
//     or one whose install was still open, never a damaged image;
//
// and while the program runs, every Append and Rotate after a failed
// one is refused, ReadWAL ships exactly the acknowledged records, and
// no damaged image installs.  For each seed the trials take every op
// index of the first run.  A failure names its trial, which replays
// alone with -run.
func TestCrashSim(t *testing.T) {
	// Every checkpoint allocates a gzip compressor of about 1 MB over a
	// live heap of a few: at the default GOGC the collector runs on
	// nearly each one, which doubles the test's time.
	gc := debug.SetGCPercent(400)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	// Trials that fail when a fix to the store is reverted, one a fix.
	for _, c := range []struct {
		name   string
		policy FsyncPolicy
		sem    core.Semantics
		seed   int64
		op     int
	}{
		// Recovery must sync the cut of a torn tail: a power loss could
		// bring the tail back once the segment is mid-history, and the
		// next boot would refuse the data dir.
		{"torn-tail-cut-is-synced", FsyncAlways, core.LFP, 3, 17},
		// Segment deletions need a directory fsync between them: a crash
		// could keep the newer one and undo the older, whose records would
		// replay over a snapshot that holds their successors.
		{"deletions-stay-a-suffix", FsyncAlways, core.Inflationary, 1, 57},
		// The case TestCheckpointDeletesOldestSegmentFirst names: deleting
		// newest first, a checkpoint that fails part way leaves older
		// segments to replay over the snapshot.
		{"deletions-run-oldest-first", FsyncAlways, core.LFP, 3, 94},
		// Under "off" too a segment's creation needs a directory fsync: a
		// crash could keep the new segment and undo recovery's removal of
		// a headerless one, which would then sit mid-history.
		{"segment-creations-are-durable", FsyncOff, core.LFP, 3, 80},
		// A rotation that fails to create its segment must not leave the
		// store pointing at it: a follower at the end of the sealed one
		// would be told its cursor had been compacted away.
		{"failed-rotation-keeps-its-segment", FsyncAlways, core.LFP, 1, 28},
	} {
		t.Run("named/"+c.name, func(t *testing.T) { simTrial(t, c.policy, c.sem, c.seed, c.op) })
	}
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncOff} {
		for _, sem := range []core.Semantics{core.LFP, core.Stratified, core.Inflationary, core.WellFounded} {
			t.Run(policy.String()+"/"+sem.String(), func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= simSeeds; seed++ {
					t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
						ops := (&crashSim{t: t, policy: policy, sem: sem, seed: seed}).firstRunOps()
						for k := 0; k < ops; k++ {
							t.Run(fmt.Sprintf("op=%d", k), func(t *testing.T) { simTrial(t, policy, sem, seed, k) })
						}
					})
				}
			})
		}
	}
}

// simSeeds is the number of scripts per policy and semantics.
const simSeeds = 3

// simSteps is the length of a trial's first run.
const simSteps = 20

// simPrograms maintains one program per semantics, so that each of the
// maintainer's strategies runs: DRed over strata, recompute, and the
// chain of Γ stages.
var simPrograms = map[core.Semantics]string{
	core.LFP:          "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).",
	core.Stratified:   "s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\nn(X,Y) :- E(X,Y), !s(Y,X).",
	core.Inflationary: winSrc,
	core.WellFounded:  winSrc,
}

const (
	simDir      = "/data"
	simFollower = "/follower"
	simPool     = 4 // constants c0..c3
)

// crashSim is one trial.
type crashSim struct {
	t      *testing.T
	policy FsyncPolicy
	sem    core.Semantics
	seed   int64
	prog   *ast.Program
	fs     *memFS
	script *rand.Rand // the steps: the same for every op index of a seed
	rng    *rand.Rand // the fault, the crash point and what a crash keeps

	s        *Store
	m        *incr.Maintainer
	base     []string // the E edges the last boot recovered
	batches  []Record // appended since that boot
	acked    int      // how many of them were acknowledged
	poisoned bool
	pending  *incr.Checkpoint // captured, not yet written

	following bool
	cursor    Cursor   // the follower's position
	shipped   []Record // what the follower may be shipped from the cursor at boot
	applied   int      // of which it has been shipped

	snap, cur installs // the follower's snapshot and cursor files
	fired     bool     // the fault had fired when the current call began
}

// installs tracks a file installFile replaces: what the last install
// that succeeded wrote ("" for none yet), and what installs that failed
// since may have left.
type installs struct {
	acked   string
	pending []string
}

// allows reports whether a crash may leave got.
func (in *installs) allows(got string) bool {
	return got == in.acked || slices.Contains(in.pending, got)
}

func simTrial(t *testing.T, policy FsyncPolicy, sem core.Semantics, seed int64, k int) {
	c := &crashSim{t: t, policy: policy, sem: sem, seed: seed}
	c.run(k)
}

// firstRunOps counts the mutating ops of the trial's first run with
// nothing failing: the op indices its trials fault.
func (c *crashSim) firstRunOps() int {
	c.init(-1)
	c.boot()
	c.steps(simSteps)
	return c.fs.ops
}

func (c *crashSim) init(k int) {
	c.prog = parser.MustProgram(simPrograms[c.sem])
	c.script = rand.New(rand.NewSource(c.seed))
	c.rng = rand.New(rand.NewSource(c.seed<<20 + int64(k)))
	c.fs = newMemFS(c.rng)
	for i := 0; i < simPool; i++ {
		if e := c.edge(); !slices.Contains(c.base, e) {
			c.base = append(c.base, e)
		}
	}
	slices.Sort(c.base)
}

// run faults op k of the first run and crashes up to 11 ops later, at
// its end, or (one time in 16) crashes at op k instead.
func (c *crashSim) run(k int) {
	c.init(k)
	if d := c.rng.Intn(16); d == 0 {
		c.fs.crashAt = k
	} else {
		c.fs.faultAt = k
		if d < 12 {
			c.fs.crashAt = k + d
		}
	}
	c.boot()
	c.steps(simSteps)
	c.fs.crash()
	c.boot()
	c.fs.crashAt = c.fs.ops + c.rng.Intn(40)
	c.steps(8)
	c.fs.crash()
	c.boot()
}

func (c *crashSim) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s/%s seed %d: %s\nreplay: go test ./internal/durable -run '^%s$'\nlast ops:\n%s",
		c.policy, c.sem, c.seed, fmt.Sprintf(format, args...), c.t.Name(), c.fs.tail(40))
}

// begin marks the start of a store call; hit then reports whether the
// call met the fault or the crash, the only excuses for an error.
func (c *crashSim) begin()    { c.fired = c.fs.fired }
func (c *crashSim) hit() bool { return c.fs.dead || c.fs.fired != c.fired }

// boot opens the store, restores the maintainer, checks both against
// what the history allows, and writes the boot checkpoint as the
// server does.  A boot the fault or the crash breaks is a crash.
func (c *crashSim) boot() {
	var info *RecoveryInfo
	var err error
	for {
		c.begin()
		if c.s, info, err = openFS(c.fs, simDir, c.policy); err == nil {
			break
		}
		if !c.hit() {
			c.fail("recovery refused: %v", err)
		}
		c.fs.crash()
	}
	if cp := info.Checkpoint; cp != nil {
		c.m, err = incr.RestoreWith(cp, engine.Options{})
	} else {
		c.m, err = incr.New(c.prog, simDatabase(c.base), c.sem)
	}
	if err != nil {
		c.fail("restore: %v", err)
	}
	for i, rec := range info.Records {
		if _, err := c.m.Update(rec.Ins, rec.Del); err != nil {
			c.fail("replaying record %d: %v", i, err)
		}
	}
	c.checkState()
	c.checkFollower()

	c.following = c.script.Intn(2) == 0
	if c.following {
		c.cursor = c.s.SnapshotCursor("f")
		c.shipped, c.applied = slices.Clone(info.Records), 0
	}
	if info.Checkpoint == nil || len(info.Records) > 0 {
		c.begin()
		if err := c.s.WriteCheckpoint(c.m.Checkpoint()); err != nil && !c.hit() {
			c.fail("boot checkpoint: %v", err)
		}
	}
}

// checkState compares the recovered state with a from-scratch
// evaluation over the EDB the history allows, and makes it the base of
// the next run.
func (c *crashSim) checkState() {
	got := simEdges(c.m)
	edb := slices.Clone(c.base)
	allowed := [][]string{edb}
	for _, rec := range c.batches {
		edb = simApply(edb, &rec)
		allowed = append(allowed, edb)
	}
	if c.policy == FsyncAlways {
		allowed = allowed[c.acked : c.acked+1]
	}
	if !slices.ContainsFunc(allowed, func(e []string) bool { return slices.Equal(e, got) }) {
		c.fail("recovered E = %v; want the base %v plus %d acknowledged of %d appended batches", got, c.base, c.acked, len(c.batches))
	}
	fresh, err := incr.New(c.prog, simDatabase(got), c.sem)
	if err != nil {
		c.fail("from scratch: %v", err)
	}
	if have, want := simRender(c.m), simRender(fresh); have != want {
		c.fail("recovered state:\n%s\nfrom scratch over the same EDB:\n%s", have, want)
	}
	c.base, c.batches, c.acked, c.poisoned, c.pending = got, nil, 0, false, nil
}

// checkFollower checks the follower's snapshot and cursor files.
func (c *crashSim) checkFollower() {
	snap := ""
	if hasSnapshotFS(c.fs, simFollower) {
		snap = string(c.fs.contents(simFollower + "/" + snapName))
	}
	if !c.snap.allows(snap) {
		c.fail("follower snapshot of %d bytes is none of the images installed", len(snap))
	}
	cur, id, ok, err := loadCursorFS(c.fs, simFollower)
	if err != nil {
		c.fail("follower cursor: %v", err)
	}
	saved := ""
	if ok {
		saved = cur.String() + " " + id
	}
	if !c.cur.allows(saved) {
		c.fail("follower cursor %q; want %q or one of %q", saved, c.cur.acked, c.cur.pending)
	}
	c.snap = installs{acked: snap}
	c.cur = installs{acked: saved}
}

// steps runs n random steps, or fewer if the program crashes.
func (c *crashSim) steps(n int) {
	for i := 0; i < n && !c.fs.dead; i++ {
		switch r := c.script.Intn(16); {
		case r < 6:
			c.append()
		case r < 9:
			c.rotate()
		case r < 12:
			c.writeCheckpoint()
		case r < 14:
			c.readWAL()
		case r < 15:
			c.install()
		default:
			c.saveCursor()
		}
	}
}

// append applies a batch that flips one or two random edges, and logs
// it, as the server's committer does.  Flips make a record replayed out
// of order change the state.
func (c *crashSim) append() {
	edb := c.base
	for _, rec := range c.batches {
		edb = simApply(edb, &rec)
	}
	rec := Record{}
	var drawn []string
	for i := 1 + c.script.Intn(2); i > 0; i-- {
		e := c.edge()
		if slices.Contains(drawn, e) {
			continue
		}
		drawn = append(drawn, e)
		f := incr.Fact{Pred: "E", Args: strings.Split(e, ",")}
		if slices.Contains(edb, e) {
			rec.Del = append(rec.Del, f)
		} else {
			rec.Ins = append(rec.Ins, f)
		}
	}
	if _, err := c.m.Update(rec.Ins, rec.Del); err != nil {
		c.fail("update: %v", err)
	}
	c.begin()
	_, err := c.s.Append(&rec)
	c.batches = append(c.batches, rec)
	switch {
	case err == nil && c.poisoned:
		c.fail("append acknowledged after a failed append or rotation")
	case err == nil:
		c.acked++
		c.shipped = append(c.shipped, rec)
	case c.poisoned && !errors.Is(err, ErrPoisoned):
		c.fail("append after a failed append or rotation: %v, want ErrPoisoned", err)
	case !c.poisoned && !c.hit():
		c.fail("append failed with no fault: %v", err)
	default:
		c.poisoned = true
	}
}

// rotate seals the active segment and captures the checkpoint image, as
// the server's checkpointer does; a checkpoint still unwritten is
// written first.
func (c *crashSim) rotate() {
	if c.pending != nil {
		c.writeCheckpoint()
	}
	c.begin()
	err := c.s.Rotate()
	switch {
	case c.poisoned && !errors.Is(err, ErrPoisoned):
		c.fail("rotate after a failed append or rotation: %v, want ErrPoisoned", err)
	case c.poisoned:
	case err != nil && !c.hit():
		c.fail("rotate failed with no fault: %v", err)
	case err != nil:
		c.poisoned = true
	default:
		c.pending = c.m.Checkpoint()
	}
}

func (c *crashSim) writeCheckpoint() {
	if c.pending == nil {
		return
	}
	cp := c.pending
	c.pending = nil
	c.begin()
	if err := c.s.WriteCheckpoint(cp); err != nil && !c.hit() {
		c.fail("checkpoint failed with no fault: %v", err)
	}
}

// readWAL ships the follower's next frames, and half the time all of
// them, checking they are the acknowledged records that come next.
func (c *crashSim) readWAL() {
	if !c.following {
		return
	}
	drain := c.script.Intn(2) == 0
	for {
		data, next, n, err := c.s.ReadWAL(c.cursor, 1+c.script.Intn(400))
		if err != nil {
			if c.fs.dead {
				return
			}
			c.fail("ReadWAL(%v): %v", c.cursor, err)
		}
		payloads, err := ScanFrames(data)
		if err != nil || len(payloads) != n {
			c.fail("ReadWAL shipped %d frames, ScanFrames found %d: %v", n, len(payloads), err)
		}
		for _, p := range payloads {
			rec, err := DecodeRecord(p)
			if err != nil {
				c.fail("ReadWAL shipped a bad record: %v", err)
			}
			if c.applied == len(c.shipped) || !reflect.DeepEqual(*rec, c.shipped[c.applied]) {
				c.fail("ReadWAL shipped %+v as record %d; the acknowledged records are %+v", *rec, c.applied, c.shipped)
			}
			c.applied++
		}
		moved := next != c.cursor
		c.cursor = next
		c.s.Pin("f", next.Seq)
		if !drain || !moved {
			return
		}
	}
}

// install gives the follower the leader's snapshot, cut short a third
// of the time as a failed download would.
func (c *crashSim) install() {
	rc, err := c.s.OpenSnapshot()
	if err != nil {
		return // no checkpoint yet
	}
	img, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		c.fail("reading the snapshot: %v", err)
	}
	damaged := c.script.Intn(3) == 0
	if damaged {
		img = img[:c.script.Intn(len(img))]
	}
	c.begin()
	err = installSnapshotFS(c.fs, simFollower, bytes.NewReader(img))
	switch {
	case damaged && err == nil:
		c.fail("installed a snapshot image cut to %d bytes", len(img))
	case damaged:
	case err == nil:
		c.snap = installs{acked: string(img)}
	case !c.hit():
		c.fail("install failed with no fault: %v", err)
	default:
		c.snap.pending = append(c.snap.pending, string(img))
	}
}

func (c *crashSim) saveCursor() {
	if !c.following || !c.fs.dirs[simFollower] {
		return // a follower saves its cursor once it has installed a snapshot
	}
	c.begin()
	err := saveCursorFS(c.fs, simFollower, c.cursor, "f")
	saved := c.cursor.String() + " f"
	switch {
	case err == nil:
		c.cur = installs{acked: saved}
	case !c.hit():
		c.fail("cursor save failed with no fault: %v", err)
	default:
		c.cur.pending = append(c.cur.pending, saved)
	}
}

// edge draws an edge "ci,cj" between two distinct constants.
func (c *crashSim) edge() string {
	from := c.script.Intn(simPool)
	to := (from + 1 + c.script.Intn(simPool-1)) % simPool
	return fmt.Sprintf("c%d,c%d", from, to)
}

// simApply returns the sorted edges after rec.
func simApply(edges []string, rec *Record) []string {
	out := slices.Clone(edges)
	for _, f := range rec.Del {
		if i := slices.Index(out, strings.Join(f.Args, ",")); i >= 0 {
			out = slices.Delete(out, i, i+1)
		}
	}
	for _, f := range rec.Ins {
		if e := strings.Join(f.Args, ","); !slices.Contains(out, e) {
			out = append(out, e)
		}
	}
	slices.Sort(out)
	return out
}

func simDatabase(edges []string) *relation.Database {
	db := relation.NewDatabase()
	db.MustEnsure("E", 2)
	for _, e := range edges {
		if err := db.AddFact("E", strings.Split(e, ",")...); err != nil {
			panic(err)
		}
	}
	return db
}

// simEdges returns the maintained E edges, sorted.
func simEdges(m *incr.Maintainer) []string {
	snap := m.Snapshot()
	var out []string
	for _, t := range snap.Rels["E"].Tuples() {
		out = append(out, snap.Universe.Name(t[0])+","+snap.Universe.Name(t[1]))
	}
	slices.Sort(out)
	return out
}

// simRender renders a maintainer's relations, and under the
// well-founded semantics its possibly-true ones, by constant name.
func simRender(m *incr.Maintainer) string {
	snap := m.Snapshot()
	var b strings.Builder
	render := func(prefix string, rels map[string]*relation.Relation) {
		for _, name := range sortedKeys(rels) {
			var rows []string
			for _, t := range rels[name].Tuples() {
				var args []string
				for _, id := range t {
					args = append(args, snap.Universe.Name(id))
				}
				rows = append(rows, strings.Join(args, ","))
			}
			slices.Sort(rows)
			fmt.Fprintf(&b, "%s%s = %v\n", prefix, name, rows)
		}
	}
	render("", snap.Rels)
	if wf := m.WF(); wf != nil {
		render("possibly ", wf.Possible)
	}
	return b.String()
}
