// Package durable persists the serve daemon's maintained state: a
// versioned, checksummed, gzip-compressed binary snapshot of an
// incr.Maintainer (snapshot.go) plus a write-ahead log of EDB update
// batches (this file), managed together on disk by a Store (store.go).
//
// The WAL is a sequence of segment files wal-<seq>.log, each a fixed
// 8-byte magic header followed by length-prefixed, CRC32-checksummed
// records.  A record is one committed update batch — the inserts and
// deletes exactly as the maintainer applied them.  Recovery replays
// every record after the snapshot through a restored maintainer; a
// torn or corrupt tail (the crash window of an in-flight append) is
// truncated at the last valid record rather than failing the boot.
package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/incr"
)

// walMagic opens every WAL segment file; the trailing digits are the
// format version, so a future format bump is a magic mismatch, not a
// misparse.
const walMagic = "dlwal001"

// maxRecordBytes bounds a single WAL record frame: anything larger is
// treated as corruption rather than a 4 GiB allocation.
const maxRecordBytes = 1 << 28

// Record is one durable update batch.
type Record struct {
	Ins []incr.Fact
	Del []incr.Fact
}

// ErrTornRecord reports a record that ends mid-frame or fails its
// checksum — the expected shape of a crash-interrupted append.  It is
// a sentinel: recovery truncates at the last valid record instead of
// propagating it.
var ErrTornRecord = errors.New("durable: torn or corrupt WAL record")

// EncodeRecord renders the record payload (without framing): varint
// fact counts, then each fact as a length-prefixed predicate name and
// length-prefixed argument strings.
func EncodeRecord(rec *Record) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(rec.Ins)))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Del)))
	appendFacts := func(facts []incr.Fact) {
		for _, f := range facts {
			buf = binary.AppendUvarint(buf, uint64(len(f.Pred)))
			buf = append(buf, f.Pred...)
			buf = binary.AppendUvarint(buf, uint64(len(f.Args)))
			for _, a := range f.Args {
				buf = binary.AppendUvarint(buf, uint64(len(a)))
				buf = append(buf, a...)
			}
		}
	}
	appendFacts(rec.Ins)
	appendFacts(rec.Del)
	return buf
}

// DecodeRecord parses a record payload produced by EncodeRecord.  It
// never panics on arbitrary input: malformed bytes yield an error.
func DecodeRecord(payload []byte) (*Record, error) {
	d := recDecoder{buf: payload}
	nIns := d.count()
	nDel := d.count()
	rec := &Record{}
	rec.Ins = d.facts(nIns)
	rec.Del = d.facts(nDel)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("durable: %d trailing bytes after WAL record", len(d.buf))
	}
	return rec, nil
}

// recDecoder consumes a record payload front to back, latching the
// first error.
type recDecoder struct {
	buf []byte
	err error
}

func (d *recDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errors.New("durable: truncated varint in WAL record")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a collection count, bounding it by the bytes that
// remain: every counted element occupies at least one byte, so a
// larger count is corruption, caught before any allocation.
func (d *recDecoder) count() int {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.buf)) {
		d.err = fmt.Errorf("durable: WAL record count %d exceeds remaining %d bytes", v, len(d.buf))
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *recDecoder) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *recDecoder) facts(n int) []incr.Fact {
	if d.err != nil || n == 0 {
		return nil
	}
	facts := make([]incr.Fact, 0, n)
	for i := 0; i < n; i++ {
		f := incr.Fact{Pred: d.str()}
		nArgs := d.count()
		if d.err != nil {
			return nil
		}
		if nArgs > 0 {
			f.Args = make([]string, 0, nArgs)
			for j := 0; j < nArgs; j++ {
				f.Args = append(f.Args, d.str())
			}
		}
		if d.err != nil {
			return nil
		}
		facts = append(facts, f)
	}
	return facts
}

// ScanFrames splits a stream of framed records — the exact bytes
// Store.ReadWAL serves, which are the exact bytes on disk — into
// verified record payloads.  Used by replication followers to decode
// shipped WAL data with the same checks recovery applies.
func ScanFrames(data []byte) ([][]byte, error) {
	var payloads [][]byte
	r := bytes.NewReader(data)
	for {
		frame, err := readFrame(r)
		if err == io.EOF {
			return payloads, nil
		}
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, frame[8:])
	}
}

// writeFrame writes one framed record: little-endian payload length
// and CRC32 (IEEE), then the payload.
func writeFrame(w io.Writer, payload []byte) (int64, error) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(len(hdr) + len(payload)), nil
}

// readFrame reads one framed record and returns the whole frame, its
// 8-byte header included; the payload is frame[8:].  io.EOF means a
// clean end exactly between records; ErrTornRecord means the stream
// ends mid-frame, the length exceeds maxRecordBytes or the checksum
// does not match.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTornRecord
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n > maxRecordBytes {
		return nil, ErrTornRecord
	}
	frame := make([]byte, 8+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[8:]); err != nil {
		return nil, ErrTornRecord
	}
	if crc32.ChecksumIEEE(frame[8:]) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrTornRecord
	}
	return frame, nil
}
