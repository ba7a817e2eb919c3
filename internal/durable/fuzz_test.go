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
	"repro/internal/relation"
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

// outOfUniverseImage is a snapshot whose EDB tuple (0, 7) names a
// constant its 2-constant universe lacks.
func outOfUniverseImage(t testing.TB) []byte {
	univ := relation.NewUniverse()
	univ.Intern("a")
	univ.Intern("b")
	e := relation.New(2)
	e.Add(relation.Tuple{0, 7})
	cp := &incr.Checkpoint{
		Prog:     parser.MustProgram("p(X) :- E(X,Y)."),
		Sem:      core.LFP,
		Universe: univ,
		EDBNames: []string{"E"},
		EDB:      map[string]*relation.Relation{"E": e},
		IDB:      map[string]*relation.Relation{"p": relation.New(1)},
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// relationFirstImage is a snapshot whose relation section comes before
// its universe section, an order WriteSnapshot never emits.
func relationFirstImage(t testing.TB) []byte {
	var buf bytes.Buffer
	buf.WriteString(snapMagic)
	zw := gzip.NewWriter(&buf)
	sw := &sectionWriter{w: zw}
	meta := binary.AppendUvarint(nil, uint64(len("lfp")))
	meta = append(meta, "lfp"...)
	sw.section(secMeta, binary.AppendUvarint(meta, 0))
	sw.section(secProgram, []byte("p(X) :- E(X,Y)."))
	sw.section(secRelation, encodeRelation(roleEDB, "E", relation.New(2)))
	sw.section(secUniverse, binary.AppendUvarint(nil, 0))
	sw.section(secEnd, nil)
	if sw.err != nil {
		t.Fatal(sw.err)
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
// a checkpoint or an error, never panic, and every tuple id of a
// checkpoint it returns names a constant of its universe.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(hugeSectionImage(f))
	f.Add(relationFirstImage(f))
	for _, img := range snapshotImages(f) {
		f.Add(img)
		for _, n := range []int{len(snapMagic), len(img) / 3, len(img) / 2, len(img) - 1} {
			f.Add(img[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := cp.Universe.Size()
		for _, rels := range []map[string]*relation.Relation{cp.EDB, cp.IDB, cp.Possible} {
			for name, rel := range rels {
				rel.Each(func(tu relation.Tuple) bool {
					for _, id := range tu {
						if id < 0 || id >= n {
							t.Fatalf("accepted relation %s holds tuple %v outside a universe of %d", name, tu, n)
						}
					}
					return true
				})
			}
		}
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
