// replica.go — the leader-side replication surface of the store: WAL
// cursors, a verified segment reader for log shipping, append
// notification for long-polling tails, and retention pinning so
// checkpoint compaction never deletes a segment a live follower still
// needs.
//
// A Cursor names a byte position in the WAL history: (segment
// sequence, byte offset within the segment file, magic header
// included).  Frames are self-delimiting and CRC-checked, so a cursor
// produced by summing served frame lengths always lands on a frame
// boundary.  The replication protocol built on top (internal/server,
// internal/replica) ships raw frames — exactly the on-disk format —
// and the follower decodes them with the same DecodeRecord the
// recovery path uses.
//
// Retention.  WriteCheckpoint normally deletes every sealed segment
// the new snapshot covers.  A Pin(id, seq) — refreshed by every
// replica request the store accepts — keeps segments ≥ seq on disk past coverage, so a
// follower that is mid-catch-up never sees its cursor compacted away.
// Pins are bounded: when the covered-but-retained record bytes exceed
// 256 MiB, the laggiest pins are evicted (their follower re-bootstraps
// from the snapshot), and pins idle for a minute expire.
// Both policies run inside the checkpoint sweep, the only place
// deletion happens.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Cursor is a position in the WAL history: a segment sequence number
// and a byte offset into that segment's file (the 8-byte magic header
// counts, so the first record of a segment sits at offset 8).
type Cursor struct {
	Seq uint64
	Off int64
}

// String renders the cursor in the "seq,off" wire form.
func (c Cursor) String() string { return fmt.Sprintf("%d,%d", c.Seq, c.Off) }

// ParseCursor parses the "seq,off" wire form.
func ParseCursor(s string) (Cursor, error) {
	var c Cursor
	if _, err := fmt.Sscanf(s, "%d,%d", &c.Seq, &c.Off); err != nil {
		return Cursor{}, fmt.Errorf("durable: bad cursor %q (want seq,off)", s)
	}
	return c, nil
}

// LoadCursor reads the follower cursor of data directory dir: the
// position in the leader's WAL the follower has applied through, and
// the follower's id, which the leader pins retention under.  ok is
// false when dir holds no cursor.
func LoadCursor(dir string) (c Cursor, id string, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, cursorName))
	if os.IsNotExist(err) {
		return Cursor{}, "", false, nil
	}
	if err != nil {
		return Cursor{}, "", false, err
	}
	var ver string
	if _, err := fmt.Sscanf(strings.TrimSpace(string(data)), "%s %d %d %s", &ver, &c.Seq, &c.Off, &id); err != nil || ver != "v1" {
		return Cursor{}, "", false, fmt.Errorf("durable: corrupt cursor file: %q", data)
	}
	return c, id, true, nil
}

// SaveCursor makes (c, id) the follower cursor of data directory dir,
// atomically and durably, as a checkpoint installs the snapshot.
func SaveCursor(dir string, c Cursor, id string) error {
	return installFile(dir, cursorName, cursorTmpName, func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "v1 %d %d %s\n", c.Seq, c.Off, id)
		return err
	})
}

// Replication errors, mapped to HTTP statuses by the server.
var (
	// ErrCompacted reports a cursor whose segment has been deleted by
	// checkpoint compaction (or eviction): the records before the
	// snapshot's coverage point are only available via the snapshot, so
	// the follower must re-bootstrap.
	ErrCompacted = errors.New("durable: cursor points before the retained WAL history")
	// ErrAhead reports a cursor past the durable end of the log — the
	// follower holds records this store does not, i.e. the histories
	// have diverged (a leader that lost an unsynced tail, or a cursor
	// from a different data dir).
	ErrAhead = errors.New("durable: cursor points past the durable end of the WAL")
)

// OpenSnapshot opens the snapshot the store serves to bootstrapping
// followers.  Checkpoints replace the file atomically; a reader that
// has opened it keeps the old image.
func (s *Store) OpenSnapshot() (io.ReadCloser, error) { return os.Open(filepath.Join(s.dir, snapName)) }

// SnapshotCursor returns the earliest live position of the WAL — the
// cursor a follower restoring the current snapshot resumes from — and
// pins it for the named follower (an empty id pins nothing), so the
// segments it needs survive until its first WAL poll re-pins them.
// Because replaying records the snapshot already contains is
// idempotent, any snapshot installed at or after the call covers
// everything before this cursor.
func (s *Store) SnapshotCursor(id string) Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := Cursor{Seq: s.minLiveSeqLocked(), Off: int64(len(walMagic))}
	s.pinLocked(id, c.Seq)
	return c
}

// minLiveSeqLocked returns the smallest live segment sequence (the
// active segment always exists).
func (s *Store) minLiveSeqLocked() uint64 {
	min := s.seq
	for seq := range s.segs {
		if seq < min {
			min = seq
		}
	}
	return min
}

// nextLiveSeqLocked returns the smallest live sequence strictly after
// seq (the active segment bounds the search).
func (s *Store) nextLiveSeqLocked(seq uint64) uint64 {
	next := s.seq
	for q := range s.segs {
		if q > seq && q < next {
			next = q
		}
	}
	return next
}

// AppendNotify returns a channel that is closed the next time the log
// grows (an append or a rotation) or the store closes.  Grab the
// channel before checking for data to avoid a missed wakeup.
func (s *Store) AppendNotify() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.notify
}

// notifyLocked wakes every AppendNotify waiter.
func (s *Store) notifyLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// Pin records that follower id needs segments ≥ seq retained.  Pins
// only advance: a stale request cannot move a follower's pin
// backwards.  Refreshing the pin also refreshes its TTL.
func (s *Store) Pin(id string, seq uint64) {
	if id == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinLocked(id, seq)
}

func (s *Store) pinLocked(id string, seq uint64) {
	if id == "" {
		return
	}
	p := s.pins[id]
	if p == nil {
		p = &pinInfo{seq: seq}
		s.pins[id] = p
	} else if seq > p.seq {
		p.seq = seq
	}
	p.last = time.Now()
}

// LagFrom reports how many records and record bytes lie strictly after
// the cursor — the follower lag the /v1/replica/wal response headers
// carry.  The cursor's own segment is scanned by frame headers (cheap:
// 8-byte reads plus seeks); later segments come from the accounting
// maps.
func (s *Store) LagFrom(c Cursor) (records, bytes int64) {
	s.mu.Lock()
	type seg struct {
		seq        uint64
		recs, size int64
	}
	var later []seg
	var cur seg
	curLive := false
	for seq, sz := range s.segs {
		switch {
		case seq == c.Seq:
			cur = seg{seq: seq, recs: s.segRecs[seq], size: sz}
			curLive = true
		case seq > c.Seq:
			later = append(later, seg{seq: seq, recs: s.segRecs[seq], size: sz})
		}
	}
	path := s.segPath(c.Seq)
	s.mu.Unlock()

	for _, sg := range later {
		records += sg.recs
		bytes += sg.size
	}
	if !curLive {
		return records, bytes
	}
	end := int64(len(walMagic)) + cur.size
	if c.Off >= end {
		return records, bytes
	}
	bytes += end - c.Off
	// Count the frames after the offset by walking headers.
	f, err := os.Open(path)
	if err != nil {
		return records, bytes
	}
	defer f.Close()
	off := c.Off
	for off < end {
		var hdr [8]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		off += 8 + n
		records++
	}
	return records, bytes
}

// ReadWAL reads up to roughly maxBytes of complete, checksum-verified
// frames starting at cursor c, returning the raw frame bytes (the
// on-disk wire format), the cursor after them, and the frame count.
// A cursor at the end of a sealed segment is transparently advanced to
// the next live segment.  Errors: ErrCompacted (segment deleted — the
// follower re-bootstraps from the snapshot), ErrAhead (cursor past the
// durable end — histories diverged), ErrClosed, or a corruption error
// for a bad frame inside a sealed segment.
func (s *Store) ReadWAL(c Cursor, maxBytes int) (data []byte, next Cursor, nrecs int, err error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, c, 0, ErrClosed
	}
	var end int64
	for {
		sz, live := s.segs[c.Seq]
		if !live {
			s.mu.Unlock()
			if c.Seq > s.seq {
				return nil, c, 0, ErrAhead
			}
			return nil, c, 0, ErrCompacted
		}
		end = int64(len(walMagic)) + sz
		if c.Off < int64(len(walMagic)) || c.Off > end {
			s.mu.Unlock()
			if c.Off > end {
				return nil, c, 0, ErrAhead
			}
			return nil, c, 0, fmt.Errorf("durable: cursor offset %d inside the segment header", c.Off)
		}
		if c.Off == end && c.Seq < s.seq {
			c = Cursor{Seq: s.nextLiveSeqLocked(c.Seq), Off: int64(len(walMagic))}
			continue
		}
		break
	}
	sealed := c.Seq < s.seq
	path := s.segPath(c.Seq)
	s.mu.Unlock()

	// Read outside the lock, up to the end accounted under it: an
	// unlinked segment stays readable through the open descriptor, and
	// a frame an Append has written but not yet accounted — its fsync
	// pending, or failed — lies past end and is not shipped.
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, c, 0, ErrCompacted
		}
		return nil, c, 0, err
	}
	defer f.Close()

	off := c.Off
	r := io.NewSectionReader(f, off, end-off)
	for len(data) < maxBytes {
		frame, err := readFrame(r)
		if err != nil {
			if sealed && err != io.EOF {
				return nil, c, 0, fmt.Errorf("durable: %s: frame at offset %d in a sealed segment: %w", path, off, err)
			}
			break
		}
		data = append(data, frame...)
		off += int64(len(frame))
		nrecs++
	}
	return data, Cursor{Seq: c.Seq, Off: off}, nrecs, nil
}

// sweepRetentionLocked applies the retention policy after a checkpoint
// made segments < covered redundant: expire idle pins, evict pins
// whose retained backlog exceeds the bound, and return the segment
// sequences that may now be deleted.
func (s *Store) sweepRetentionLocked(covered uint64) (drop []uint64) {
	now := time.Now()
	for id, p := range s.pins {
		if s.pinTTL > 0 && now.Sub(p.last) > s.pinTTL {
			delete(s.pins, id)
		}
	}
	minPin := func() uint64 {
		min := uint64(math.MaxUint64)
		for _, p := range s.pins {
			if p.seq < min {
				min = p.seq
			}
		}
		return min
	}
	retained := func(from uint64) int64 {
		var b int64
		for seq, sz := range s.segs {
			if seq >= from && seq < covered {
				b += sz
			}
		}
		return b
	}
	for {
		mp := minPin()
		if mp == math.MaxUint64 || retained(mp) <= s.retainBytes {
			break
		}
		// Evict the laggiest follower(s); their next poll gets
		// ErrCompacted and they re-bootstrap from the snapshot.
		for id, p := range s.pins {
			if p.seq == mp {
				delete(s.pins, id)
				s.evictions++
			}
		}
	}
	floor := minPin()
	for seq := range s.segs {
		if seq < covered && seq < floor {
			drop = append(drop, seq)
		}
	}
	return drop
}

// pinInfo is one follower's retention pin.
type pinInfo struct {
	seq  uint64
	last time.Time
}
