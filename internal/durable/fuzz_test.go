package durable

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/graphs"
	"repro/internal/incr"
	"repro/internal/parser"
)

// FuzzWALDecode feeds arbitrary bytes to the WAL record decoder: it
// must never panic, and any payload it accepts must re-encode to a
// payload that decodes to the same record (byte identity is too strong
// — binary.Uvarint accepts non-minimal encodings — but record identity
// must hold).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add(EncodeRecord(&Record{Ins: []incr.Fact{{Pred: "E", Args: []string{"a", "b"}}}}))
	f.Add(EncodeRecord(&Record{
		Ins: []incr.Fact{{Pred: "p", Args: nil}},
		Del: []incr.Fact{{Pred: "E", Args: []string{"", "x"}}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		again, err := DecodeRecord(EncodeRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded accepted record failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rec, again) {
			t.Fatalf("decode/encode/decode changed record: %+v -> %+v", rec, again)
		}
	})
}

// hugeSectionImage is a 38-byte snapshot whose one section header
// declares a payload of maxSectionBytes that the stream does not hold.
func hugeSectionImage(t testing.TB) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(binary.AppendUvarint([]byte{secMeta}, maxSectionBytes)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// snapshotImages returns a real snapshot per maintenance strategy:
// transitive closure by DRed over strata, win-move recomputed under
// the inflationary semantics and maintained as Γ stages under the
// well-founded one.
func snapshotImages(t testing.TB) [][]byte {
	db := graphs.Random(rand.New(rand.NewSource(7)), 6, 0.4).Database()
	var images [][]byte
	for _, c := range []struct {
		src string
		sem core.Semantics
	}{
		{"s(X,Y) :- E(X,Y).\ns(X,Y) :- E(X,Z), s(Z,Y).", core.LFP},
		{winSrc, core.Inflationary},
		{winSrc, core.WellFounded},
	} {
		m, err := incr.New(parser.MustProgram(c.src), db, c.sem)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, m.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		images = append(images, buf.Bytes())
	}
	return images
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder,
// which reads what a follower downloads from its leader: it must return
// a checkpoint or an error, never panic.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugeSectionImage(f))
	for _, img := range snapshotImages(f) {
		f.Add(img)
		for _, n := range []int{len(snapMagic), len(img) / 3, len(img) / 2, len(img) - 1} {
			f.Add(img[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ReadSnapshot(bytes.NewReader(data))
	})
}

// A section length the stream does not back costs no more memory than
// the stream holds: the 38-byte image used to allocate 2 GiB before
// failing at EOF.
func TestSnapshotDecodeBoundsAllocation(t *testing.T) {
	img := hugeSectionImage(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadSnapshot accepted a section the stream does not hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("decoding a %d-byte image allocated %d bytes", len(img), got)
	}
}
