// snapshot.go — the binary checkpoint format.
//
// A snapshot file is an 8-byte magic/version header followed by one
// gzip stream of sections, each section a kind byte, a varint payload
// length, the payload, and a CRC32 of the payload:
//
//	"dlsnap01"
//	gzip {
//	  [secMeta    ] semantics name, generation
//	  [secProgram ] program text (re-parsed on restore)
//	  [secUniverse] constant names in id order
//	  [secRelation]* role (EDB/IDB/possible), name, arity, tuples
//	  [secEnd     ]
//	}
//
// Tuples serialize in arena insertion order — one tag byte selecting
// the packed uint64 key (8 bytes little-endian) or the length-prefixed
// spill byte string — so a restored EDB relation's arena is in the
// original order; derived relations are recomputed on restore and only
// checked against the image's.  Any other section kind is an error,
// and so is a relation section before the universe section or a tuple
// id that names no constant of the universe.
package durable

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/parser"
	"repro/internal/relation"
)

// snapMagic opens every snapshot file; the digits are the format
// version.
const snapMagic = "dlsnap01"

// Section kinds.
const (
	secMeta     = 1
	secProgram  = 2
	secUniverse = 3
	secRelation = 4
	secEnd      = 0xFF
)

// Relation roles within a snapshot.
const (
	roleEDB      = 0
	roleIDB      = 1
	rolePossible = 2
)

// maxSectionBytes bounds a single section payload: larger lengths are
// treated as corruption.  A payload up to eagerSectionBytes is read into
// one allocation of its declared length; a longer one grows with the
// bytes that arrive, so a damaged length costs at most what the stream
// actually holds.
const (
	maxSectionBytes   = 1 << 31
	eagerSectionBytes = 1 << 20
)

// gzipWriters holds gzip writers between snapshots: a new one
// allocates its compressor's state, about 800 KB, before the first
// byte, and Reset gives an old one the state of a new one.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// WriteSnapshot serializes a checkpoint to w in the format above.
func WriteSnapshot(w io.Writer, cp *incr.Checkpoint) error {
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(w)
	sw := &sectionWriter{w: zw}

	var buf []byte
	sem := cp.Sem.String()
	buf = binary.AppendUvarint(buf, uint64(len(sem)))
	buf = append(buf, sem...)
	buf = binary.AppendUvarint(buf, cp.Gen)
	sw.section(secMeta, buf)

	sw.section(secProgram, []byte(cp.Prog.String()))

	buf = buf[:0]
	names := cp.Universe.Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	sw.section(secUniverse, buf)

	for _, name := range cp.EDBNames {
		sw.section(secRelation, encodeRelation(roleEDB, name, cp.EDB[name]))
	}
	for _, name := range sortedKeys(cp.IDB) {
		sw.section(secRelation, encodeRelation(roleIDB, name, cp.IDB[name]))
	}
	for _, name := range sortedKeys(cp.Possible) {
		sw.section(secRelation, encodeRelation(rolePossible, name, cp.Possible[name]))
	}

	sw.section(secEnd, nil)
	if sw.err != nil {
		return sw.err
	}
	return zw.Close()
}

// ReadSnapshot parses a snapshot stream back into a checkpoint ready
// for incr.RestoreWith.  Any structural damage — bad magic, checksum
// mismatch, truncated section, unparsable program, a tuple id outside
// the universe — is an error; a snapshot is replaced atomically, so
// unlike the WAL there is no valid "torn" state to salvage.
func ReadSnapshot(r io.Reader) (*incr.Checkpoint, error) {
	var magic [len(snapMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("durable: reading snapshot header: %w", err)
	}
	if string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("durable: snapshot magic %q, want %q (version skew?)", magic[:], snapMagic)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot gzip: %w", err)
	}
	defer zr.Close()
	br := bufio.NewReader(zr)

	cp := &incr.Checkpoint{
		EDB:      make(map[string]*relation.Relation),
		IDB:      make(map[string]*relation.Relation),
		Universe: relation.NewUniverse(),
	}
	seen := map[byte]bool{}
	for {
		kind, payload, err := readSection(br)
		if err != nil {
			return nil, err
		}
		if kind == secEnd {
			break
		}
		if kind != secRelation && seen[kind] {
			return nil, fmt.Errorf("durable: duplicate snapshot section %d", kind)
		}
		seen[kind] = true
		switch kind {
		case secMeta:
			d := recDecoder{buf: payload}
			semName := d.str()
			gen := d.uvarint()
			if d.err != nil {
				return nil, fmt.Errorf("durable: snapshot meta: %w", d.err)
			}
			sem, err := core.ParseSemantics(semName)
			if err != nil {
				return nil, fmt.Errorf("durable: snapshot meta: %w", err)
			}
			cp.Sem = sem
			cp.Gen = gen
		case secProgram:
			prog, err := parser.Program(string(payload))
			if err != nil {
				return nil, fmt.Errorf("durable: snapshot program: %w", err)
			}
			cp.Prog = prog
		case secUniverse:
			d := recDecoder{buf: payload}
			n := d.count()
			for i := 0; i < n && d.err == nil; i++ {
				name := d.str()
				if id := cp.Universe.Intern(name); id != i {
					return nil, fmt.Errorf("durable: universe name %q interned as %d, want %d", name, id, i)
				}
			}
			if d.err != nil {
				return nil, fmt.Errorf("durable: snapshot universe: %w", d.err)
			}
		case secRelation:
			if !seen[secUniverse] {
				return nil, errors.New("durable: snapshot relation section before the universe section")
			}
			role, name, rel, err := decodeRelation(payload, cp.Universe.Size())
			if err != nil {
				return nil, err
			}
			switch role {
			case roleEDB:
				cp.EDBNames = append(cp.EDBNames, name)
				cp.EDB[name] = rel
			case roleIDB:
				cp.IDB[name] = rel
			case rolePossible:
				if cp.Possible == nil {
					cp.Possible = make(map[string]*relation.Relation)
				}
				cp.Possible[name] = rel
			default:
				return nil, fmt.Errorf("durable: snapshot relation %s has unknown role %d", name, role)
			}
		default:
			return nil, fmt.Errorf("durable: unknown snapshot section %d", kind)
		}
	}
	if !seen[secMeta] || !seen[secProgram] || !seen[secUniverse] {
		return nil, errors.New("durable: snapshot missing a required section")
	}
	// Drain to EOF so the gzip reader verifies its own trailer CRC —
	// a snapshot truncated after the end section would otherwise pass.
	if n, err := io.Copy(io.Discard, br); err != nil {
		return nil, fmt.Errorf("durable: snapshot trailer: %w", err)
	} else if n != 0 {
		return nil, fmt.Errorf("durable: %d bytes after snapshot end section", n)
	}
	return cp, nil
}

// sectionWriter emits sections, latching the first error.
type sectionWriter struct {
	w   io.Writer
	err error
}

func (s *sectionWriter) section(kind byte, payload []byte) {
	if s.err != nil {
		return
	}
	hdr := []byte{kind}
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, s.err = s.w.Write(hdr); s.err != nil {
		return
	}
	if _, s.err = s.w.Write(payload); s.err != nil {
		return
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload))
	_, s.err = s.w.Write(sum[:])
}

// readSection reads one section, verifying its checksum.
func readSection(br *bufio.Reader) (byte, []byte, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("durable: truncated snapshot: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxSectionBytes {
		return 0, nil, fmt.Errorf("durable: snapshot section %d has bad length", kind)
	}
	var payload []byte
	if n <= eagerSectionBytes {
		payload = make([]byte, n)
		_, err = io.ReadFull(br, payload)
	} else {
		payload, err = io.ReadAll(io.LimitReader(br, int64(n)))
		if err == nil && uint64(len(payload)) < n {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return 0, nil, fmt.Errorf("durable: truncated snapshot section %d: %w", kind, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return 0, nil, fmt.Errorf("durable: truncated snapshot section %d: %w", kind, err)
	}
	if binary.LittleEndian.Uint32(sum[:]) != crc32.ChecksumIEEE(payload) {
		return 0, nil, fmt.Errorf("durable: snapshot section %d checksum mismatch", kind)
	}
	return kind, payload, nil
}

// Tuple tags within a relation section.
const (
	tupPacked = 0 // 8-byte little-endian packed uint64 key
	tupSpill  = 1 // varint-length-prefixed spill byte string
)

// encodeRelation renders one relation section payload, tuples in arena
// insertion order.
func encodeRelation(role byte, name string, rel *relation.Relation) []byte {
	var buf []byte
	buf = append(buf, role)
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(rel.Arity()))
	buf = binary.AppendUvarint(buf, uint64(rel.Len()))
	rel.Each(func(t relation.Tuple) bool {
		if k, ok := relation.PackKey(t); ok {
			buf = append(buf, tupPacked)
			buf = binary.LittleEndian.AppendUint64(buf, k)
		} else {
			sk := relation.SpillKey(t)
			buf = append(buf, tupSpill)
			buf = binary.AppendUvarint(buf, uint64(len(sk)))
			buf = append(buf, sk...)
		}
		return true
	})
	return buf
}

// decodeRelation parses one relation section payload over a universe
// of univSize constants: every tuple id must lie in [0, univSize).
func decodeRelation(payload []byte, univSize int) (role byte, name string, rel *relation.Relation, err error) {
	if len(payload) == 0 {
		return 0, "", nil, errors.New("durable: empty relation section")
	}
	role = payload[0]
	d := recDecoder{buf: payload[1:]}
	name = d.str()
	arity := int(d.uvarint())
	n := int(d.uvarint())
	if d.err != nil {
		return 0, "", nil, fmt.Errorf("durable: relation section header: %w", d.err)
	}
	if arity < 0 || arity > 1<<16 || n < 0 {
		return 0, "", nil, fmt.Errorf("durable: relation %s has implausible arity %d", name, arity)
	}
	rel = relation.New(arity)
	for i := 0; i < n; i++ {
		if len(d.buf) == 0 {
			return 0, "", nil, fmt.Errorf("durable: relation %s truncated at tuple %d/%d", name, i, n)
		}
		tag := d.buf[0]
		d.buf = d.buf[1:]
		var t relation.Tuple
		switch tag {
		case tupPacked:
			if len(d.buf) < 8 {
				return 0, "", nil, fmt.Errorf("durable: relation %s truncated at tuple %d/%d", name, i, n)
			}
			k := binary.LittleEndian.Uint64(d.buf)
			d.buf = d.buf[8:]
			t = relation.UnpackKey(k, arity)
			if rk, ok := relation.PackKey(t); !ok || rk != k {
				return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d: packed key %d does not round-trip", name, i, k)
			}
		case tupSpill:
			sn := d.count()
			if d.err != nil {
				return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d: %w", name, i, d.err)
			}
			var ok bool
			t, ok = relation.DecodeSpillKey(d.buf[:sn], arity)
			if !ok {
				return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d: bad spill key length %d for arity %d", name, i, sn, arity)
			}
			d.buf = d.buf[sn:]
		default:
			return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d has unknown tag %d", name, i, tag)
		}
		for _, id := range t {
			if id < 0 || id >= univSize {
				return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d names constant %d outside a universe of %d", name, i, id, univSize)
			}
		}
		if !rel.Add(t) {
			return 0, "", nil, fmt.Errorf("durable: relation %s tuple %d is a duplicate", name, i)
		}
	}
	if len(d.buf) != 0 {
		return 0, "", nil, fmt.Errorf("durable: relation %s has %d trailing bytes", name, len(d.buf))
	}
	return role, name, rel, nil
}

// sortedKeys returns the map's keys sorted, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
