// store.go — the on-disk layout and lifecycle.
//
// A data directory holds at most one snapshot plus a sequence of WAL
// segments:
//
//	snapshot.bin    latest checkpoint (atomically replaced)
//	snapshot.tmp    in-flight checkpoint write (discarded on boot)
//	wal-<seq>.log   update batches committed after snapshot.bin
//	replica.cursor  a follower's position in its leader's WAL (see
//	                LoadCursor; atomically replaced like the snapshot)
//
// The protocols:
//
//	append     frame the record, write, fsync per policy.  The caller
//	           (the server's committer) answers clients only after
//	           Append returns, so acknowledged implies durable under
//	           the "always" policy.  The first failed append, fsync
//	           or rotation fences the store: every later Append and
//	           Rotate is refused, so no record is ever acknowledged
//	           past a possible tear.
//	checkpoint Rotate() seals the active segment and opens the next
//	           one while the caller captures a sealed state image in
//	           the same critical section; WriteCheckpoint() then —
//	           off the commit path — streams the image to
//	           snapshot.tmp, fsyncs, renames over snapshot.bin,
//	           fsyncs the directory, and deletes the covered
//	           segments oldest first, stopping at the first failure.
//	           A crash or failed delete leaves only a suffix of the
//	           covered segments, so replaying them over the snapshot
//	           re-applies the last updates in order and ends in the
//	           snapshot's state.
//	recover    read snapshot.bin if present, then every segment in
//	           sequence order.  The final segment's torn tail (a
//	           crash mid-append) is truncated at the last valid
//	           record; corruption in the middle of the history is an
//	           error.  A fresh active segment is always opened after
//	           the highest existing one, so recovery never appends to
//	           a file it also truncated.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/incr"
)

const (
	snapName      = "snapshot.bin"
	snapTmpName   = "snapshot.tmp"
	cursorName    = "replica.cursor"
	cursorTmpName = "replica.cursor.tmp"
)

// Follower retention bounds (see replica.go): at most this many bytes
// of covered-but-pinned WAL are kept for lagging followers, and a pin
// not refreshed for this long expires.
const (
	maxRetainedBytes = 256 << 20
	pinIdleTTL       = time.Minute
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: acknowledged implies
	// durable, at one fsync per commit batch.
	FsyncAlways FsyncPolicy = iota
	// FsyncOff leaves syncing to the OS: fastest, loses whatever the
	// page cache held.  Recovery is still exact up to the surviving
	// prefix.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always or off)", s)
}

// String names the policy, inverse of ParseFsyncPolicy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "unknown"
}

// RecoveryInfo reports what Open found on disk.
type RecoveryInfo struct {
	// Checkpoint is the parsed snapshot, nil when the directory had
	// none (fresh start or WAL-only history).
	Checkpoint *incr.Checkpoint
	// Records is the WAL suffix to replay after restoring Checkpoint,
	// in commit order.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped from the final
	// segment.
	TruncatedBytes int64
	// Segments counts the WAL segment files scanned.
	Segments int
}

// Store owns a data directory: the active WAL segment, the recovered
// history, and the checkpoint replacement protocol.  Append and Rotate
// are safe for concurrent use; WriteCheckpoint runs concurrently with
// both.  A Store starts no goroutine: every file operation runs on the
// goroutine that called the method.
type Store struct {
	dir    string
	policy FsyncPolicy

	mu         sync.Mutex
	f          *os.File // active segment
	seq        uint64   // active segment sequence number
	closed     bool
	poisoned   bool             // an append or a rotation failed: the active segment may hold a tear
	walBytes   int64            // record bytes across live segments
	walRecords int64            // records across live segments
	segs       map[uint64]int64 // live segment -> record bytes (for deletion accounting)
	segRecs    map[uint64]int64

	// Replication state (replica.go): append/rotate wakeups for
	// long-polling readers, follower retention pins, and the bounds
	// the checkpoint sweep enforces on them (maxRetainedBytes and
	// pinIdleTTL; fields so white-box tests can shrink them).
	notify      chan struct{}
	pins        map[string]*pinInfo
	covered     uint64 // segments below this are redundant with the snapshot
	retainBytes int64
	pinTTL      time.Duration
	evictions   int64
}

// StoreStats is a point-in-time accounting snapshot.
type StoreStats struct {
	WALBytes    int64
	WALRecords  int64
	WALSegments int
	FsyncPolicy string
	// RetainedSegments counts sealed segments a snapshot already
	// covers that follower pins keep on disk.
	RetainedSegments int
	// Pins counts live follower retention pins.
	Pins int
	// Evictions counts pins dropped by the bounded-lag policy.
	Evictions int64
}

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("durable: store is closed")

// ErrPoisoned reports an append or rotation refused because an earlier
// append or rotation failed.  The active segment may then hold a
// torn frame, and writing past it would place acknowledged records
// beyond the point recovery truncates at, silently dropping them.
var ErrPoisoned = errors.New("durable: an earlier WAL append failed; refusing further appends")

// Open opens (creating if needed) a data directory, recovers its
// history, and leaves the store ready for appends on a fresh segment.
// The third parameter is ignored: it remains because the benchmark
// harness passes 0.
func Open(dir string, policy FsyncPolicy, _ time.Duration) (*Store, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	// A leftover snapshot.tmp is an interrupted checkpoint write:
	// snapshot.bin is still the authoritative one.
	_ = os.Remove(filepath.Join(dir, snapTmpName))

	s := &Store{
		dir:         dir,
		policy:      policy,
		segs:        make(map[uint64]int64),
		segRecs:     make(map[uint64]int64),
		notify:      make(chan struct{}),
		pins:        make(map[string]*pinInfo),
		retainBytes: maxRetainedBytes,
		pinTTL:      pinIdleTTL,
	}
	info := &RecoveryInfo{}

	if f, err := os.Open(filepath.Join(dir, snapName)); err == nil {
		cp, rerr := ReadSnapshot(f)
		f.Close()
		if rerr != nil {
			return nil, nil, fmt.Errorf("durable: %s: %w", snapName, rerr)
		}
		info.Checkpoint = cp
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}

	seqs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	info.Segments = len(seqs)
	maxSeq := uint64(0)
	for i, seq := range seqs {
		if seq > maxSeq {
			maxSeq = seq
		}
		recs, bytes, truncated, removed, err := s.replaySegment(seq, i == len(seqs)-1)
		if err != nil {
			return nil, nil, err
		}
		info.Records = append(info.Records, recs...)
		info.TruncatedBytes += truncated
		if removed {
			continue
		}
		s.segs[seq] = bytes
		s.segRecs[seq] = int64(len(recs))
		s.walBytes += bytes
		s.walRecords += int64(len(recs))
	}

	s.seq = maxSeq + 1
	if err := s.openSegment(); err != nil {
		return nil, nil, err
	}
	return s, info, nil
}

// isSegment reports whether a file name is a WAL segment's.
func isSegment(name string) bool {
	return strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log")
}

// listSegments returns the segment sequence numbers in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !isSegment(name) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// segPath names a segment file.
func (s *Store) segPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d.log", seq))
}

// replaySegment reads one segment's records.  last selects the
// torn-tail policy: the final segment is truncated in place at the
// last valid record; an earlier segment with a bad tail is corruption
// in the middle of the history and fails recovery.  A segment with no
// durable header — empty, or a partial header on the final segment
// (a crash right at creation) — holds no records and is removed
// outright, so it can never fail the magic check on a later boot;
// removed reports that the file is gone and must not be accounted.
func (s *Store) replaySegment(seq uint64, last bool) (recs []Record, liveBytes, truncated int64, removed bool, err error) {
	path := s.segPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, false, err
	}
	size := st.Size()
	if size == 0 {
		return nil, 0, 0, true, os.Remove(path)
	}

	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || string(magic[:]) != walMagic {
		if last && err != nil {
			return nil, 0, size, true, os.Remove(path)
		}
		return nil, 0, 0, false, fmt.Errorf("durable: %s is not a WAL segment (version skew?)", path)
	}
	valid := int64(len(walMagic))
	for {
		frame, err := readFrame(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			if !last {
				return nil, 0, 0, false, fmt.Errorf("durable: %s: corrupt record mid-history", path)
			}
			truncated = size - valid
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, 0, 0, false, terr
			}
			break
		}
		rec, err := DecodeRecord(frame[8:])
		if err != nil {
			if !last {
				return nil, 0, 0, false, fmt.Errorf("durable: %s: %w", path, err)
			}
			truncated = size - valid
			if terr := os.Truncate(path, valid); terr != nil {
				return nil, 0, 0, false, terr
			}
			break
		}
		valid += int64(len(frame))
		recs = append(recs, *rec)
	}
	return recs, valid - int64(len(walMagic)), truncated, false, nil
}

// openSegment creates the active segment file with its header.
func (s *Store) openSegment() error {
	f, err := os.OpenFile(s.segPath(s.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return err
	}
	if s.policy == FsyncAlways {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	s.f = f
	s.segs[s.seq] = 0
	s.segRecs[s.seq] = 0
	return nil
}

// Append durably logs one committed batch, returning the framed size.
// Under FsyncAlways the record has reached stable storage when Append
// returns.  A failed append — a write, an fsync, or an append to a
// closed store — fences the store: its error is returned, and every
// later Append and Rotate is refused.
func (s *Store) Append(rec *Record) (int64, error) {
	payload := EncodeRecord(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	err := s.refusalLocked()
	if err == nil {
		n, err = writeFrame(s.f, payload)
	}
	if err == nil && s.policy == FsyncAlways {
		err = s.f.Sync()
	}
	if err != nil {
		// A partial write (e.g. ENOSPC mid-frame) leaves a torn frame,
		// and after a failed fsync the kernel may have dropped the
		// dirty pages: either way, a record appended after this one
		// could sit beyond the point recovery truncates at.
		s.poisoned = true
		return 0, err
	}
	s.segs[s.seq] += n
	s.segRecs[s.seq]++
	s.walBytes += n
	s.walRecords++
	s.notifyLocked()
	return n, nil
}

// Err returns ErrPoisoned once an Append or a Rotate has failed, and
// nil before.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.poisoned {
		return ErrPoisoned
	}
	return nil
}

// refusalLocked reports why the store refuses appends and rotations:
// ErrClosed after Close, ErrPoisoned after a failed append or
// rotation.
func (s *Store) refusalLocked() error {
	switch {
	case s.closed:
		return ErrClosed
	case s.poisoned:
		return ErrPoisoned
	}
	return nil
}

// Rotate seals the active segment and opens the next one.  Callers
// capture their state image under the same lock that serializes their
// Appends, immediately after Rotate returns: everything logged before
// the rotation is then covered by that image, and WriteCheckpoint may
// delete the sealed segments once the image is on disk.  A poisoned
// store refuses: sealing a segment with a torn frame would turn its
// tear into mid-history corruption on the next boot.  A failed
// rotation fences the store like a failed append: the sealed segment
// may have lost pages to a failed fsync, or the store may be left
// without an active segment.
func (s *Store) Rotate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.refusalLocked(); err != nil {
		return err
	}
	err := s.f.Sync()
	if err == nil {
		err = s.f.Close()
	}
	if err == nil {
		s.seq++
		err = s.openSegment()
	}
	if err != nil {
		s.poisoned = true
		return err
	}
	// Wake tailing readers parked at the sealed end of the old active
	// segment so they advance to the new one.
	s.notifyLocked()
	return nil
}

// WriteCheckpoint atomically replaces the snapshot with cp and deletes
// the WAL segments it covers (every sealed segment), except those a
// follower retention pin still needs — see sweepRetentionLocked.  It
// runs off the commit path: appends to the active segment proceed
// concurrently.
func (s *Store) WriteCheckpoint(cp *incr.Checkpoint) error {
	if err := installFile(s.dir, snapName, snapTmpName, func(w io.Writer) error { return WriteSnapshot(w, cp) }); err != nil {
		return err
	}

	// The snapshot is durable: sealed segments are now redundant, and
	// those no pin retains may be deleted.
	s.mu.Lock()
	s.covered = s.seq
	drop := s.sweepRetentionLocked(s.covered)
	s.mu.Unlock()
	// Recovery replays every segment left over the snapshot, so the
	// survivors must be a suffix of the history: delete oldest first,
	// stop at the first failure, and keep a segment accounted until it
	// is gone, so the next checkpoint retries the rest.
	slices.Sort(drop)
	for _, seq := range drop {
		if err := os.Remove(s.segPath(seq)); err != nil && !os.IsNotExist(err) {
			return err
		}
		s.mu.Lock()
		s.walBytes -= s.segs[seq]
		s.walRecords -= s.segRecs[seq]
		delete(s.segs, seq)
		delete(s.segRecs, seq)
		s.mu.Unlock()
	}
	return nil
}

// installFile atomically replaces dir's file name with what write
// produces: stream it to tmp, fsync, rename over name, fsync the
// directory.  A crash at any point leaves either the old file or the
// new one.
func installFile(dir, name, tmp string, write func(io.Writer) error) error {
	tmp = filepath.Join(dir, tmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		// Crash-window hook for the recovery harness: hold the install
		// open between the tmp write and the rename so a SIGKILL can
		// land provably mid-checkpoint (a follower's cursor saves wait
		// too).
		if d, perr := time.ParseDuration(os.Getenv("REPRO_CKPT_DELAY")); perr == nil {
			time.Sleep(d)
		}
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// InstallSnapshot makes the snapshot image read from r the snapshot of
// data directory dir, atomically, as a checkpoint would, creating dir
// if need be.  A follower installs its leader's checkpoint this way
// before opening dir.  The image is parsed as it is written, and one
// ReadSnapshot rejects — damaged, or cut short by a failed download —
// is not installed.
func InstallSnapshot(dir string, r io.Reader) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return installFile(dir, snapName, snapTmpName, func(w io.Writer) error {
		_, err := ReadSnapshot(io.TeeReader(r, w))
		return err
	})
}

// HasSnapshot reports whether data directory dir holds a snapshot.
func HasSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapName))
	return err == nil
}

// Reset removes a store's files from data directory dir — the
// snapshot, an interrupted snapshot write, every WAL segment and the
// follower cursor with its interrupted write — and leaves every other
// file alone.  A missing dir is already reset.
func Reset(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		switch name := e.Name(); {
		case name == snapName, name == snapTmpName, name == cursorName, name == cursorTmpName, isSegment(name):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns the live WAL accounting.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	retained := 0
	for seq := range s.segs {
		if seq < s.covered {
			retained++
		}
	}
	return StoreStats{
		WALBytes:         s.walBytes,
		WALRecords:       s.walRecords,
		WALSegments:      len(s.segs), // sealed live segments + active
		FsyncPolicy:      s.policy.String(),
		RetainedSegments: retained,
		Pins:             len(s.pins),
		Evictions:        s.evictions,
	}
}

// Close flushes and closes the active segment.  Appends after Close
// fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.notifyLocked()
	s.mu.Unlock()
	return err
}

// syncDir fsyncs a directory, making renames and creations in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
