package durable

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

const winSrc = "win(X) :- E(X,Y), !win(Y)."

// mustMaintainer builds a win-move maintainer under sem over a small
// graph: recomputed under the inflationary semantics, a Γ chain under
// the well-founded one.
func mustMaintainer(t *testing.T, sem core.Semantics) *incr.Maintainer {
	t.Helper()
	prog := parser.MustProgram(winSrc)
	db := graphs.Random(rand.New(rand.NewSource(7)), 6, 0.4).Database()
	m, err := incr.New(prog, db, sem)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, sem := range []core.Semantics{core.Inflationary, core.WellFounded} {
		t.Run(sem.String(), func(t *testing.T) {
			m := mustMaintainer(t, sem)
			if _, err := m.Update([]incr.Fact{{Pred: "E", Args: []string{"v0", "v5"}}}, nil); err != nil {
				t.Fatal(err)
			}
			cp := m.Checkpoint()
			var buf, again bytes.Buffer
			for _, b := range []*bytes.Buffer{&buf, &again} {
				if err := WriteSnapshot(b, cp); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatal("a checkpoint encoded twice gave different bytes")
			}
			got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			r, err := incr.RestoreWith(got, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Snapshot().Gen != m.Snapshot().Gen {
				t.Fatalf("restored gen %d, want %d", r.Snapshot().Gen, m.Snapshot().Gen)
			}
			want := m.State().Format(m.Universe())
			have := r.State().Format(r.Universe())
			if want != have {
				t.Fatalf("state after snapshot round trip:\n%s\nwant:\n%s", have, want)
			}
			// The restored maintainer must behave identically under a
			// further update.
			ins := []incr.Fact{{Pred: "E", Args: []string{"v5", "v0"}}}
			if _, err := m.Update(ins, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Update(ins, nil); err != nil {
				t.Fatal(err)
			}
			if m.State().Format(m.Universe()) != r.State().Format(r.Universe()) {
				t.Fatal("restored maintainer diverged on the first post-restore update")
			}
		})
	}
}

// TestStratifiableWellFoundedSnapshot: the well-founded model of a
// stratifiable program is total and computed by strata, so its image
// carries each IDB relation once, with no Possible sections.  An image
// that does carry them, as images written before did, still restores,
// and what it says of Possible is still checked.
func TestStratifiableWellFoundedSnapshot(t *testing.T) {
	prog := parser.MustProgram("s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).\nn(X,Y) :- E(X,Y), !s(Y,X).")
	m, err := incr.New(prog, graphs.Random(rand.New(rand.NewSource(7)), 6, 0.4).Database(), core.WellFounded)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(cp *incr.Checkpoint) *incr.Checkpoint {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, cp); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := m.State().Format(m.Universe())
	cp := m.Checkpoint()
	got := roundTrip(cp)
	if len(got.Possible) != 0 || len(got.IDB) != 2 {
		t.Fatalf("image carries %d IDB and %d possible relations, want 2 and none", len(got.IDB), len(got.Possible))
	}

	dup := *cp
	dup.Possible = cp.IDB
	for _, c := range []*incr.Checkpoint{got, roundTrip(&dup)} {
		r, err := incr.RestoreWith(c, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if have := r.State().Format(r.Universe()); have != want || !r.WF().Total() {
			t.Fatalf("restored state (total %v):\n%s\nwant:\n%s", r.WF().Total(), have, want)
		}
	}

	bad := dup
	bad.Possible = map[string]*relation.Relation{"s": relation.New(2)}
	if _, err := incr.RestoreWith(roundTrip(&bad), engine.Options{}); err == nil {
		t.Error("restore accepted a possible part that is not the model's")
	}
}

func TestSnapshotRejectsDamage(t *testing.T) {
	m := mustMaintainer(t, core.Inflationary)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("version-skew", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[7] = '9' // magic "dlsnap01" -> "dlsnap09"
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version skew") {
			t.Errorf("want version-skew error, got %v", err)
		}
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		// Flipping any byte of the gzip stream breaks either the gzip
		// CRC or a section CRC; both must reject.
		bad := append([]byte{}, good...)
		bad[len(bad)/2] ^= 0xFF
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Error("corrupted snapshot accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := ReadSnapshot(bytes.NewReader(good[:len(good)-3])); err == nil {
			t.Error("truncated snapshot accepted")
		}
	})
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{},
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{
			Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}, {Pred: "F", Args: nil}},
			Del: []incr.Fact{{Pred: "E", Args: []string{"", "long constant with spaces"}}},
		},
	}
	for _, rec := range recs {
		got, err := DecodeRecord(EncodeRecord(&rec))
		if err != nil {
			t.Fatalf("%+v: %v", rec, err)
		}
		if !reflect.DeepEqual(*got, rec) {
			t.Errorf("round trip changed record: %+v -> %+v", rec, *got)
		}
	}
}

// openStore opens a store on dir with fsync=always, failing the test on
// error.
func openStore(t *testing.T, dir string) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := Open(dir, FsyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s, info
}

func TestStoreAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s, info := openStore(t, dir)
	if info.Checkpoint != nil || len(info.Records) != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	want := []Record{
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{Del: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
	}
	for i := range want {
		if _, err := s.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALRecords != 2 || st.WALBytes == 0 || st.WALSegments != 1 {
		t.Fatalf("stats after 2 appends: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&want[0]); err != ErrClosed {
		t.Fatalf("append after close: %v", err)
	}

	s2, info2 := openStore(t, dir)
	defer s2.Close()
	if !reflect.DeepEqual(info2.Records, want) {
		t.Fatalf("recovered %+v, want %+v", info2.Records, want)
	}
	if info2.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", info2.TruncatedBytes)
	}
}

func TestStoreTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage after the valid record.
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, info := openStore(t, dir)
	defer s2.Close()
	if len(info.Records) != 1 || !reflect.DeepEqual(info.Records[0], rec) {
		t.Fatalf("recovered %+v, want the one valid record", info.Records)
	}
	if info.TruncatedBytes != 6 {
		t.Errorf("truncated %d bytes, want 6", info.TruncatedBytes)
	}
	// The truncation is physical: a third open sees a clean log.
	s2.Close()
	s3, info3 := openStore(t, dir)
	defer s3.Close()
	if info3.TruncatedBytes != 0 || len(info3.Records) != 1 {
		t.Fatalf("truncation did not persist: %+v", info3)
	}
}

func TestStoreChecksumMismatchDropsTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	recA := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	recB := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"c", "d"}}}}
	if _, err := s.Append(&recA); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&recB); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one payload byte of the LAST record: its CRC mismatches, so
	// recovery keeps only the first.
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := openStore(t, dir)
	defer s2.Close()
	if len(info.Records) != 1 || !reflect.DeepEqual(info.Records[0], recA) {
		t.Fatalf("recovered %+v, want only the intact first record", info.Records)
	}
	if info.TruncatedBytes == 0 {
		t.Error("corrupt tail reported zero truncated bytes")
	}
}

func TestStoreSegmentVersionSkew(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	s.Close()
	seg := filepath.Join(dir, "wal-0000000000000001.log")
	if err := os.WriteFile(seg, []byte("dlwal999"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, FsyncAlways, 0); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Fatalf("want version-skew error, got %v", err)
	}
}

func TestStoreRotateAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()

	m := mustMaintainer(t, core.Inflationary)
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"v0", "v5"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Update(rec.Ins, rec.Del); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	cp := m.Checkpoint()
	after := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"v5", "v1"}}}}
	if _, err := s.Append(&after); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALSegments != 1 || st.WALRecords != 1 {
		t.Fatalf("stats after checkpoint: %+v (want 1 segment, 1 record)", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-0000000000000001.log")); !os.IsNotExist(err) {
		t.Error("covered segment not deleted after checkpoint")
	}

	// Recovery: snapshot + the post-rotation suffix only.
	s.Close()
	s2, info := openStore(t, dir)
	defer s2.Close()
	if info.Checkpoint == nil {
		t.Fatal("no checkpoint recovered")
	}
	if !reflect.DeepEqual(info.Records, []Record{after}) {
		t.Fatalf("recovered suffix %+v, want only the post-rotation record", info.Records)
	}
	r, err := incr.RestoreWith(info.Checkpoint, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range info.Records {
		if _, err := r.Update(rr.Ins, rr.Del); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Update(after.Ins, after.Del); err != nil {
		t.Fatal(err)
	}
	if got, want := r.State().Format(r.Universe()), m.State().Format(m.Universe()); got != want {
		t.Fatalf("recovered state:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckpointDeletesOldestSegmentFirst makes the oldest of three
// covered segments undeletable and checks that the checkpoint deletes
// no newer one: segment 1 inserts E(a,b) and segment 2 deletes it, so
// segment 1 replayed alone over the snapshot would bring E(a,b) back.
// The failed segments stay accounted, and the next checkpoint deletes
// them.  Repeated, so that no deletion order can pass by chance.
func TestCheckpointDeletesOldestSegmentFirst(t *testing.T) {
	cp := mustMaintainer(t, core.Inflationary).Checkpoint()
	ab := []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}
	for trial := 0; trial < 20; trial++ {
		fsys := newMemFS(rand.New(rand.NewSource(1)))
		s, _, err := openFS(fsys, "/data", FsyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []Record{{Ins: ab}, {Del: ab}, {Ins: []incr.Fact{{Pred: "E", Args: []string{"b", "c"}}}}} {
			if _, err := s.Append(&rec); err != nil {
				t.Fatal(err)
			}
			if err := s.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
		fsys.stuck = s.segPath(1)
		if err := s.WriteCheckpoint(cp); err == nil {
			t.Fatal("checkpoint deleted an undeletable segment")
		}
		for seq := uint64(2); seq <= 3; seq++ {
			if fsys.files[s.segPath(seq)] == nil {
				t.Fatalf("trial %d: segment %d deleted while segment 1 survives", trial, seq)
			}
		}
		if n := s.Stats().WALSegments; n != 4 {
			t.Fatalf("trial %d: %d segments accounted after the failed deletion, want 4", trial, n)
		}

		fsys.stuck = ""
		if err := s.WriteCheckpoint(cp); err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().WALSegments; n != 1 {
			t.Fatalf("trial %d: %d segments accounted after the retry, want 1", trial, n)
		}
		for seq := uint64(1); seq <= 3; seq++ {
			if fsys.files[s.segPath(seq)] != nil {
				t.Fatalf("trial %d: segment %d not deleted by the retry", trial, seq)
			}
		}
	}
}

// Under the off policy no Append syncs, but Close does: a record
// appended before a clean Close is recovered.
func TestStoreOffPolicyCloseFlushes(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, FsyncOff, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openStore(t, dir)
	defer s2.Close()
	if len(info.Records) != 1 {
		t.Fatalf("recovered %d records, want 1", len(info.Records))
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncOff} {
		got, err := ParseFsyncPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, bad := range []string{"sometimes", "interval"} {
		if _, err := ParseFsyncPolicy(bad); err == nil {
			t.Errorf("policy %q accepted", bad)
		}
	}
}

// A crash at segment creation leaves a headerless (possibly empty)
// last segment.  Recovery must remove it — not truncate it to zero and
// leave it behind, where the next boot would see an empty NON-last
// segment, fail the magic check, and refuse to open the data dir.
func TestStoreHeaderlessSegmentRemoved(t *testing.T) {
	for _, tc := range []struct {
		name    string
		content []byte
	}{
		{"empty", nil},
		{"partial header", []byte("dlw")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, _ := openStore(t, dir)
			rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
			if _, err := s.Append(&rec); err != nil {
				t.Fatal(err)
			}
			s.Close()

			// Simulate the crash: a higher-seq segment with no durable
			// header.
			crashed := filepath.Join(dir, "wal-0000000000000007.log")
			if err := os.WriteFile(crashed, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, info := openStore(t, dir)
			s2.Close()
			if len(info.Records) != 1 {
				t.Fatalf("recovered %d records, want 1", len(info.Records))
			}
			if _, err := os.Stat(crashed); !os.IsNotExist(err) {
				t.Fatalf("headerless segment still on disk (stat err %v)", err)
			}

			// The regression: the second boot must succeed too, and
			// still see the full history.
			s3, info3 := openStore(t, dir)
			defer s3.Close()
			if len(info3.Records) != 1 {
				t.Fatalf("second boot recovered %d records, want 1", len(info3.Records))
			}
		})
	}
}

// An empty segment in the MIDDLE of the history (e.g. left behind by
// an interrupted recovery) is skipped and removed rather than failing
// the boot as corruption.
func TestStoreEmptyMidHistorySegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	s.Close()

	empty := filepath.Join(dir, "wal-0000000000000000.log") // below both live segments
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := openStore(t, dir)
	defer s2.Close()
	if len(info.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(info.Records))
	}
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Fatalf("empty segment still on disk (stat err %v)", err)
	}
}

// After a failed append the store must never let a later record be
// acknowledged beyond the (possible) tear: appends and rotations are
// refused with ErrPoisoned, and Err reports the fence.
func TestStorePoisonedAfterFailedAppend(t *testing.T) {
	fsys := newMemFS(rand.New(rand.NewSource(1)))
	s, _, err := openFS(fsys, "/data", FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}

	fsys.faultAt = fsys.ops // the next write fails
	if err := s.Err(); err != nil {
		t.Fatalf("Err before any failure: %v", err)
	}
	if _, err := s.Append(&rec); err == nil {
		t.Fatal("append whose write failed succeeded")
	}
	if err := s.Err(); err != ErrPoisoned {
		t.Fatalf("Err after a failed append: %v, want ErrPoisoned", err)
	}
	if _, err := s.Append(&rec); err != ErrPoisoned {
		t.Fatalf("append after tear: %v, want ErrPoisoned", err)
	}
	if err := s.Rotate(); err != ErrPoisoned {
		t.Fatalf("rotate after tear: %v, want ErrPoisoned", err)
	}
	if st := s.Stats(); st.WALRecords != 1 {
		t.Fatalf("failed append leaked into accounting: %+v", st)
	}
}

// A failed rotation fences the store like a failed append: the sealed
// segment's fsync failed, so its acknowledged records may be gone, and
// no later record may be acknowledged after them.
func TestStorePoisonedAfterFailedRotate(t *testing.T) {
	fsys := newMemFS(rand.New(rand.NewSource(1)))
	s, _, err := openFS(fsys, "/data", FsyncOff)
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}

	fsys.faultAt = fsys.ops // the sealed segment's fsync fails
	if err := s.Rotate(); err == nil {
		t.Fatal("Rotate whose fsync failed succeeded")
	}
	if err := s.Err(); err != ErrPoisoned {
		t.Fatalf("Err after a failed rotation: %v, want ErrPoisoned", err)
	}
	if _, err := s.Append(&rec); err != ErrPoisoned {
		t.Fatalf("append after a failed rotation: %v, want ErrPoisoned", err)
	}
}

// InstallSnapshot refuses an image recovery could not read — garbage, a
// real one cut short, one whose tuples name constants outside its
// universe or whose relations precede the universe — and leaves no
// snapshot behind.  A follower would otherwise restore a state that
// panics when a tuple is rendered.
func TestInstallSnapshotRejectsDamagedImage(t *testing.T) {
	var image bytes.Buffer
	if err := WriteSnapshot(&image, mustMaintainer(t, core.WellFounded).Checkpoint()); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{
		"garbage":                      []byte("not a snapshot at all"),
		"truncated":                    image.Bytes()[:image.Len()/2],
		"id outside the universe":      outOfUniverseImage(t),
		"relation before the universe": relationFirstImage(t),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := InstallSnapshot(dir, bytes.NewReader(img)); err == nil {
				t.Fatal("InstallSnapshot accepted a damaged image")
			}
			if HasSnapshot(dir) {
				t.Fatal("a damaged image was installed")
			}
		})
	}
}

// Reset removes exactly the store's files and the follower cursor, and
// a snapshot image put back with InstallSnapshot is what the next Open
// recovers.
func TestResetAndInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	m := mustMaintainer(t, core.Inflationary)
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"v0", "v5"}}}}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	f, err := s.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	image, err := io.ReadAll(f)
	f.Close()
	s.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{snapTmpName, cursorName, cursorTmpName, "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if err := Reset(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if want := []string{"notes.txt"}; !reflect.DeepEqual(left, want) {
		t.Fatalf("after Reset the dir holds %v, want %v", left, want)
	}
	if HasSnapshot(dir) {
		t.Fatal("HasSnapshot after Reset")
	}
	if err := Reset(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("Reset of a missing dir: %v", err)
	}

	if err := InstallSnapshot(dir, bytes.NewReader(image)); err != nil {
		t.Fatal(err)
	}
	if !HasSnapshot(dir) {
		t.Fatal("no snapshot after InstallSnapshot")
	}
	s2, info := openStore(t, dir)
	defer s2.Close()
	if info.Checkpoint == nil || len(info.Records) != 0 {
		t.Fatalf("Open after install: checkpoint %v, %d records; want the image alone", info.Checkpoint != nil, len(info.Records))
	}
	r, err := incr.RestoreWith(info.Checkpoint, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.State().Format(r.Universe()), m.State().Format(m.Universe()); got != want {
		t.Fatalf("installed snapshot restores:\n%s\nwant:\n%s", got, want)
	}
}

// TestWriteSnapshotConcurrently: goroutines encoding at once, each with
// a gzip writer of the shared pool, write the bytes one writes alone.
func TestWriteSnapshotConcurrently(t *testing.T) {
	cp := mustMaintainer(t, core.WellFounded).Checkpoint()
	var want bytes.Buffer
	if err := WriteSnapshot(&want, cp); err != nil {
		t.Fatal(err)
	}
	got := make([]bytes.Buffer, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				got[i].Reset()
				if err := WriteSnapshot(&got[i], cp); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Errorf("goroutine %d wrote %d bytes unlike the %d written alone", i, got[i].Len(), want.Len())
		}
	}
}

// BenchmarkWriteSnapshot encodes a small win-move checkpoint, the size
// of TestCrashSim's, to io.Discard: its B/op is mostly the compressor's
// state, paid per snapshot unless a gzip writer is reused.
func BenchmarkWriteSnapshot(b *testing.B) {
	prog := parser.MustProgram(winSrc)
	db := graphs.Random(rand.New(rand.NewSource(7)), 6, 0.4).Database()
	m, err := incr.New(prog, db, core.WellFounded)
	if err != nil {
		b.Fatal(err)
	}
	cp := m.Checkpoint()
	b.ReportAllocs()
	for b.Loop() {
		if err := WriteSnapshot(io.Discard, cp); err != nil {
			b.Fatal(err)
		}
	}
}
