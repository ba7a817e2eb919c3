package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/incr"
)

// readAll drains the WAL from c, decoding every shipped frame.
func readAll(t *testing.T, s *Store, c Cursor) ([]Record, Cursor) {
	t.Helper()
	var out []Record
	for {
		data, next, n, err := s.ReadWAL(c, 1<<20)
		if err != nil {
			t.Fatalf("ReadWAL(%v): %v", c, err)
		}
		if n == 0 {
			return out, next
		}
		payloads, err := ScanFrames(data)
		if err != nil {
			t.Fatalf("ScanFrames: %v", err)
		}
		if len(payloads) != n {
			t.Fatalf("ReadWAL reported %d frames, ScanFrames found %d", n, len(payloads))
		}
		for _, p := range payloads {
			rec, err := DecodeRecord(p)
			if err != nil {
				t.Fatalf("DecodeRecord: %v", err)
			}
			out = append(out, *rec)
		}
		c = next
	}
}

// endCursor is the position one past the last durable record.
func endCursor(s *Store) Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Cursor{Seq: s.seq, Off: int64(len(walMagic)) + s.segs[s.seq]}
}

func TestReadWALWalksHistory(t *testing.T) {
	s, _ := openStore(t, t.TempDir())
	defer s.Close()

	want := []Record{
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{Del: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"c", "d"}}}},
	}
	start := s.SnapshotCursor("")
	if _, err := s.Append(&want[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil { // force a segment boundary mid-history
		t.Fatal(err)
	}
	for i := 1; i < len(want); i++ {
		if _, err := s.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}

	got, next := readAll(t, s, start)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shipped %+v, want %+v", got, want)
	}
	if end := endCursor(s); next != end {
		t.Fatalf("cursor after drain %v, want end %v", next, end)
	}
	// Reading at the end is not an error; it just ships nothing.
	if _, _, n, err := s.ReadWAL(next, 1<<20); err != nil || n != 0 {
		t.Fatalf("read at end: n=%d err=%v", n, err)
	}
}

func TestReadWALErrors(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	rec := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	old := s.SnapshotCursor("")
	if _, err := s.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	m := mustMaintainer(t, 0)
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	if _, _, _, err := s.ReadWAL(old, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read at compacted cursor: %v, want ErrCompacted", err)
	}
	end := endCursor(s)
	if _, _, _, err := s.ReadWAL(Cursor{Seq: end.Seq + 5, Off: 8}, 0); !errors.Is(err, ErrAhead) {
		t.Fatalf("read past the log: %v, want ErrAhead", err)
	}
	if _, _, _, err := s.ReadWAL(Cursor{Seq: end.Seq, Off: end.Off + 999}, 0); !errors.Is(err, ErrAhead) {
		t.Fatalf("read past the active tail: %v, want ErrAhead", err)
	}
}

// TestCursorFile: a saved follower cursor loads back, in the "v1 seq
// off id" format earlier followers wrote, so their data dirs resume; a
// dir without one has none, and a damaged one is an error.
func TestCursorFile(t *testing.T) {
	dir := t.TempDir()
	if _, _, ok, err := LoadCursor(dir); ok || err != nil {
		t.Fatalf("empty dir: ok=%v err=%v, want no cursor", ok, err)
	}
	if err := SaveCursor(dir, Cursor{Seq: 3, Off: 25}, "f-0a1b"); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "replica.cursor")); err != nil || string(data) != "v1 3 25 f-0a1b\n" {
		t.Fatalf("cursor file = %q, %v", data, err)
	}
	if c, id, ok, err := LoadCursor(dir); !ok || err != nil || c != (Cursor{Seq: 3, Off: 25}) || id != "f-0a1b" {
		t.Fatalf("LoadCursor = %v %q ok=%v err=%v", c, id, ok, err)
	}
	if _, err := os.Stat(filepath.Join(dir, cursorTmpName)); !os.IsNotExist(err) {
		t.Fatalf("the cursor's tmp file survived the save: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, cursorName), []byte("v2 3 25"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadCursor(dir); err == nil {
		t.Fatal("a damaged cursor file loaded")
	}
}

// TestReadWALStopsAtAccountedEnd: a frame an Append has written but
// not yet accounted — its fsync still pending, or failed — is not
// shipped.  The read ends at the acknowledged end, and the follower's
// next poll from there succeeds instead of finding its cursor ahead.
func TestReadWALStopsAtAccountedEnd(t *testing.T) {
	s, _ := openStore(t, t.TempDir())
	defer s.Close()
	start := s.SnapshotCursor("")
	acked := Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}
	if _, err := s.Append(&acked); err != nil {
		t.Fatal(err)
	}
	end := endCursor(s)
	s.mu.Lock()
	_, err := writeFrame(s.f, EncodeRecord(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"c", "d"}}}}))
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	_, next, n, err := s.ReadWAL(start, 1<<20)
	if err != nil || n != 1 || next != end {
		t.Errorf("read = %d records, cursor %v, err %v; want 1 record and the accounted end %v", n, next, err, end)
	}
	if _, _, n, err := s.ReadWAL(next, 1<<20); err != nil || n != 0 {
		t.Fatalf("next poll = %d records, err %v; want none and no error", n, err)
	}
}

// TestReadWALDamagedFrame: a damaged frame in a sealed segment is
// corruption, so ReadWAL fails; in the active segment it is the shape
// of an append still in flight, so the read ends before it.
func TestReadWALDamagedFrame(t *testing.T) {
	recs := []Record{
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"c", "d"}}}},
	}
	damages := []struct {
		name string
		do   func(f *os.File, second int64) error // second: offset of the second frame
	}{
		{"checksum", func(f *os.File, second int64) error {
			_, err := f.WriteAt([]byte{0xFF}, second+8)
			return err
		}},
		{"length", func(f *os.File, second int64) error {
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], maxRecordBytes+1)
			_, err := f.WriteAt(n[:], second)
			return err
		}},
		{"torn", func(f *os.File, second int64) error { return f.Truncate(second + 9) }},
	}
	for _, sealed := range []bool{true, false} {
		for _, d := range damages {
			t.Run(fmt.Sprintf("sealed=%v/%s", sealed, d.name), func(t *testing.T) {
				s, _ := openStore(t, t.TempDir())
				defer s.Close()
				start := s.SnapshotCursor("")
				for i := range recs {
					if _, err := s.Append(&recs[i]); err != nil {
						t.Fatal(err)
					}
				}
				if sealed {
					if err := s.Rotate(); err != nil {
						t.Fatal(err)
					}
				}
				_, second, _, err := s.ReadWAL(start, 1)
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(s.segPath(start.Seq), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				err = d.do(f, second.Off)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}

				data, next, n, err := s.ReadWAL(start, 1<<20)
				if sealed {
					if err == nil || errors.Is(err, ErrCompacted) || errors.Is(err, ErrAhead) {
						t.Fatalf("damaged sealed segment: err = %v, want a corruption error", err)
					}
					return
				}
				if err != nil || n != 1 || next != second {
					t.Fatalf("damaged active segment: n=%d next=%v err=%v, want 1 frame ending at %v", n, next, err, second)
				}
				payloads, err := ScanFrames(data)
				if err != nil || len(payloads) != 1 {
					t.Fatalf("ScanFrames of the shipped prefix: %d payloads, %v", len(payloads), err)
				}
				if rec, err := DecodeRecord(payloads[0]); err != nil || !reflect.DeepEqual(*rec, recs[0]) {
					t.Fatalf("shipped %+v (%v), want %+v", rec, err, recs[0])
				}
			})
		}
	}
}

func TestPinRetainsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	recs := []Record{
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}},
		{Ins: []incr.Fact{{Pred: "E", Args: []string{"c", "d"}}}},
	}
	c := s.SnapshotCursor("follower-1")
	if _, err := s.Append(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(&recs[1]); err != nil {
		t.Fatal(err)
	}
	m := mustMaintainer(t, 0)
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	// The covered segment survives: the pinned follower can still read
	// its whole backlog.
	if st := s.Stats(); st.RetainedSegments == 0 || st.Pins != 1 {
		t.Fatalf("stats after pinned checkpoint: %+v", st)
	}
	got, _ := readAll(t, s, c)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("pinned read shipped %+v, want %+v", got, recs)
	}

	// Dropping the pin lets the next checkpoint compact.
	s.mu.Lock()
	delete(s.pins, "follower-1")
	s.mu.Unlock()
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.ReadWAL(c, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read after unpin+checkpoint: %v, want ErrCompacted", err)
	}
}

func TestBoundedLagEviction(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	s.retainBytes, s.pinTTL = 1, time.Hour // evict anyone retaining more than 1 byte

	c := s.SnapshotCursor("laggard")
	if _, err := s.Append(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	m := mustMaintainer(t, 0)
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Pins != 0 || st.Evictions != 1 || st.RetainedSegments != 0 {
		t.Fatalf("stats after bounded-lag sweep: %+v (want pin evicted)", st)
	}
	if _, _, _, err := s.ReadWAL(c, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("evicted follower read: %v, want ErrCompacted", err)
	}
}

func TestPinTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	s.retainBytes, s.pinTTL = 1<<30, time.Millisecond
	s.Pin("idle", 1)
	time.Sleep(5 * time.Millisecond)
	m := mustMaintainer(t, 0)
	if err := s.WriteCheckpoint(m.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Pins != 0 {
		t.Fatalf("idle pin survived its TTL: %+v", st)
	}
}

func TestAppendNotify(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	ch := s.AppendNotify()
	select {
	case <-ch:
		t.Fatal("notify fired before any append")
	default:
	}
	if _, err := s.Append(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("append did not wake the notify channel")
	}
	// Close wakes waiters too, so a long-poller never hangs on shutdown.
	ch = s.AppendNotify()
	s.Close()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("close did not wake the notify channel")
	}
}

func TestLagFrom(t *testing.T) {
	dir := t.TempDir()
	s, _ := openStore(t, dir)
	defer s.Close()
	start := s.SnapshotCursor("")
	for i := 0; i < 3; i++ {
		if _, err := s.Append(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := s.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, bytes := s.LagFrom(start)
	if recs != 3 || bytes == 0 {
		t.Fatalf("LagFrom(start) = %d recs, %d bytes; want 3 recs", recs, bytes)
	}
	if recs, bytes := s.LagFrom(endCursor(s)); recs != 0 || bytes != 0 {
		t.Fatalf("LagFrom(end) = %d recs, %d bytes; want 0, 0", recs, bytes)
	}
}

func TestScanFramesRejectsDamage(t *testing.T) {
	data, _, _, err := func() ([]byte, Cursor, int, error) {
		dir := t.TempDir()
		s, _ := openStore(t, dir)
		defer s.Close()
		if _, err := s.Append(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}); err != nil {
			t.Fatal(err)
		}
		return s.ReadWAL(s.SnapshotCursor(""), 1<<20)
	}()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte{}, data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ScanFrames(bad); err == nil {
		t.Error("corrupt frame accepted")
	}
	if _, err := ScanFrames(data[:len(data)-2]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestParseCursor(t *testing.T) {
	c := Cursor{Seq: 42, Off: 1234}
	got, err := ParseCursor(c.String())
	if err != nil || got != c {
		t.Fatalf("ParseCursor(%q) = %v, %v", c.String(), got, err)
	}
	if _, err := ParseCursor("nope"); err == nil {
		t.Error("bad cursor accepted")
	}
}
