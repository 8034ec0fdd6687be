package store

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"unitp/internal/obs"
)

// File naming: each generation g owns a snapshot "snap-<g>.snap" and a
// log "wal-<g>.log" of records appended after that snapshot was taken.
// A new snapshot is written as "snap-<g>.tmp", synced, and renamed into
// place before the old generation's files are removed, so at every
// instant at least one complete (snapshot, WAL) pair is on disk.
//
// History records — the part of the state that only ever grows — live
// in an append-only "hist-<h>.log", framed like the WAL, where h is the
// generation whose rotation created the file. Each rotation appends the
// records added since the previous one and syncs them before the new
// snapshot, which records the file's covered length, is renamed into
// place. Bytes past that length are never trusted: a crash mid-rotation
// can leave a torn or garbage tail there. So the first rotation after an
// Open does not append to the recovered file; it starts a new one, and
// the file the previous snapshot named is retired with the old
// generation.
//
// Recovery scans for the highest-numbered valid snapshot, reads the
// covered prefix of its history file, and replays its WAL; stray *.tmp
// files, stale generations and unreferenced history files are deleted.

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	tmpSuffix  = ".tmp"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	histPrefix = "hist-"
)

func snapName(gen uint64) string { return fmt.Sprintf("%s%016d%s", snapPrefix, gen, snapSuffix) }
func walName(gen uint64) string  { return fmt.Sprintf("%s%016d%s", walPrefix, gen, walSuffix) }
func histName(gen uint64) string { return fmt.Sprintf("%s%016d%s", histPrefix, gen, walSuffix) }

// parseGen extracts the generation number from a snapshot or WAL file
// name, returning ok=false for anything that does not match the scheme.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// ErrNoSnapshot is returned by Append/Sync before the first
// WriteSnapshot: a store only becomes writable once it has a snapshot
// to anchor the WAL's generation.
var ErrNoSnapshot = errors.New("store: no snapshot written yet")

// errClosed is returned by WriteSnapshot after Close. A closed store
// has given up its history file handle; reopen the backend instead.
var errClosed = errors.New("store: closed")

// Stats counts store activity since Open.
type Stats struct {
	// Appends is the number of WAL records appended.
	Appends uint64

	// AppendedBytes is the framed byte volume appended to the WAL.
	AppendedBytes uint64

	// Syncs counts WAL fsyncs.
	Syncs uint64

	// Snapshots counts snapshots written (generation rotations).
	Snapshots uint64

	// HistoryAppends is the number of history records written by
	// WriteSnapshot; the next WriteSnapshot's prior must equal it.
	HistoryAppends uint64

	// RecoveredHistory is the number of history records found at Open.
	RecoveredHistory uint64

	// RecoveredRecords is the number of valid WAL records found at Open.
	RecoveredRecords uint64

	// RecoveredBytes is the valid WAL prefix length found at Open.
	RecoveredBytes uint64

	// TruncatedBytes counts torn-tail / trailing-garbage bytes discarded
	// at Open.
	TruncatedBytes uint64

	// SkippedSnapshots counts snapshot files present at Open that failed
	// validation and were ignored.
	SkippedSnapshots uint64

	// Generation is the store's current generation number.
	Generation uint64
}

// Store is a WAL + snapshot pair over a Backend. One Store owns the
// backend's namespace; after a simulated crash the Store is dead and a
// new one must be opened over the recovered backend.
type Store struct {
	mu      sync.Mutex
	backend Backend
	stats   Stats
	metrics *obs.Registry

	// lastSnap is the wall-clock instant of the last WriteSnapshot,
	// feeding the admin plane's last-snapshot-age readiness check.
	lastSnap time.Time

	// recovered state from Open, consumed by the caller's restore pass
	// and dropped by the next WriteSnapshot.
	snapshot []byte
	history  [][]byte
	records  [][]byte

	gen uint64
	wal File // nil until the first WriteSnapshot

	// hist is the history file the current snapshot covers a prefix of;
	// histFile is its handle, nil until this Store first writes history.
	hist     histRef
	histFile File
	closed   bool
}

// SetMetrics attaches a live registry: append/sync/snapshot latency
// histograms, byte counters, and the generation gauge. Latencies are
// wall-clock (the real cost of the backend), never the simulation clock,
// so attaching metrics cannot perturb deterministic experiments.
func (s *Store) SetMetrics(m *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = m
}

// LastSnapshotTime returns the wall-clock instant of the most recent
// WriteSnapshot (zero before the first).
func (s *Store) LastSnapshotTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnap
}

// Open scans the backend, selects the newest valid snapshot, and loads
// the history prefix it covers and the valid prefix of its WAL. On a
// virgin backend Snapshot() returns nil and the caller bootstraps with
// WriteSnapshot. Stray temp files, stale generations and history files
// no snapshot covers are removed. A snapshot in an envelope version
// this build does not read, or one whose covered history is missing or
// damaged, fails Open rather than being skipped.
func Open(b Backend) (*Store, error) {
	names, err := b.List()
	if err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}

	s := &Store{backend: b}

	// Collect candidate snapshots, newest generation first.
	var snapGens []uint64
	walGens := make(map[uint64]bool)
	histGens := make(map[uint64]bool)
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			// Leftover from a crash mid-snapshot: never valid, delete.
			if err := b.Remove(name); err != nil {
				return nil, fmt.Errorf("store: open: remove %s: %w", name, err)
			}
			continue
		}
		if gen, ok := parseGen(name, snapPrefix, snapSuffix); ok {
			snapGens = append(snapGens, gen)
		} else if gen, ok := parseGen(name, walPrefix, walSuffix); ok {
			walGens[gen] = true
		} else if gen, ok := parseGen(name, histPrefix, walSuffix); ok {
			histGens[gen] = true
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	chosen := false
	for _, gen := range snapGens {
		data, err := b.ReadFile(snapName(gen))
		if err != nil {
			if errors.Is(err, ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("store: open: %w", err)
		}
		fileGen, hist, state, err := decodeSnapshot(data)
		if errors.Is(err, ErrSnapshotVersion) {
			return nil, fmt.Errorf("store: open %s: %w", snapName(gen), err)
		}
		if err != nil || fileGen != gen {
			s.stats.SkippedSnapshots++
			continue
		}
		s.snapshot = state
		s.gen = gen
		s.hist = hist
		chosen = true
		break
	}

	if chosen {
		s.stats.Generation = s.gen
		if s.history, err = readHistory(b, s.hist); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", snapName(s.gen), err)
		}
		s.stats.RecoveredHistory = uint64(len(s.history))
		if walData, err := s.backend.ReadFile(walName(s.gen)); err == nil {
			scan := scanWAL(walData)
			s.records = scan.records
			s.stats.RecoveredRecords = uint64(len(scan.records))
			s.stats.RecoveredBytes = uint64(scan.validBytes)
			s.stats.TruncatedBytes = uint64(scan.truncatedBytes)
		} else if !errors.Is(err, ErrNotExist) {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}

	// Drop every generation other than the chosen one. The chosen WAL
	// itself is kept untouched — the caller replays it and then rotates
	// via WriteSnapshot, which is how torn tails get discarded for good.
	for _, gen := range snapGens {
		if chosen && gen == s.gen {
			continue
		}
		if err := b.Remove(snapName(gen)); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	for gen := range walGens {
		if chosen && gen == s.gen {
			continue
		}
		if err := b.Remove(walName(gen)); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	for gen := range histGens {
		if chosen && gen == s.hist.gen {
			continue
		}
		if err := b.Remove(histName(gen)); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}

	return s, nil
}

// readHistory reads the history prefix ref covers. Everything in it was
// synced before the snapshot naming it was renamed into place, so a
// short or damaged prefix is corruption, not a torn write, and is an
// error; bytes past the prefix are ignored.
func readHistory(b Backend, ref histRef) ([][]byte, error) {
	if ref.gen == 0 {
		return nil, nil
	}
	data, err := b.ReadFile(histName(ref.gen))
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if uint64(len(data)) < ref.n {
		return nil, fmt.Errorf("history %s holds %d bytes, snapshot covers %d",
			histName(ref.gen), len(data), ref.n)
	}
	scan := scanWAL(data[:ref.n])
	if uint64(scan.validBytes) != ref.n {
		return nil, fmt.Errorf("history %s damaged at byte %d of %d covered",
			histName(ref.gen), scan.validBytes, ref.n)
	}
	return scan.records, nil
}

// Snapshot returns the state blob recovered at Open (nil on a virgin
// backend).
func (s *Store) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot
}

// History returns the history records recovered at Open, in append
// order: everything the recovered snapshot's rotations appended.
func (s *Store) History() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.history
}

// Records returns the WAL records recovered at Open, in append order.
func (s *Store) Records() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// Generation returns the current generation number.
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// WriteSnapshot persists state as a new generation and rotates the WAL.
// history is appended to the history file first and synced; then the
// snapshot is temp-written, synced and renamed into place, a fresh
// empty WAL is created for the new generation, and the previous
// generation's files are removed. After it returns, state and history
// are durable and the WAL is empty.
//
// history holds the records added since this Store's previous
// WriteSnapshot, and prior counts the records that come before them,
// which must be exactly the records this Store has written since Open.
// The first rotation after Open therefore passes prior 0 and the whole
// history (what History() returned plus everything added since), and
// starts a new history file rather than appending after a tail this
// Store did not write. Any other prior is an error and nothing is
// written, so a caller that lost track of what is durable fails instead
// of dropping or duplicating history. With no history to write, no
// history file is touched.
func (s *Store) WriteSnapshot(state []byte, prior uint64, history [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if prior != s.stats.HistoryAppends {
		return fmt.Errorf("store: snapshot: history delta follows %d records, this store has written %d since Open",
			prior, s.stats.HistoryAppends)
	}
	start := time.Now()

	prevGen, hadPrev := s.gen, s.wal != nil || s.snapshot != nil || s.stats.Snapshots > 0
	prevHist := s.hist
	newGen := s.gen + 1

	if err := s.appendHistory(newGen, history); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	tmp := snapName(newGen) + tmpSuffix
	f, err := s.backend.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := f.Write(encodeSnapshot(newGen, s.hist, state)); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := s.backend.Rename(tmp, snapName(newGen)); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	// The new snapshot is durable; open the new generation's WAL.
	if s.wal != nil {
		s.wal.Close()
		s.wal = nil
	}
	wal, err := s.backend.Create(walName(newGen))
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}

	s.gen = newGen
	s.wal = wal
	s.stats.Snapshots++
	s.stats.Generation = newGen
	s.snapshot = nil
	s.history = nil
	s.records = nil
	s.lastSnap = time.Now()
	s.metrics.Counter("store.snapshots").Inc()
	s.metrics.Gauge("store.generation").Set(int64(newGen))
	s.metrics.Observe("store.snapshot_latency", time.Since(start))

	// Retire the previous generation, and the history file it named if
	// this rotation started a new one. Failures here would leave stale
	// files that the next Open cleans up, but under the simulated crash
	// model a failure means the whole process is dead anyway.
	if hadPrev {
		if err := s.backend.Remove(snapName(prevGen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
		if err := s.backend.Remove(walName(prevGen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
	}
	if prevHist.gen != 0 && prevHist.gen != s.hist.gen {
		if err := s.backend.Remove(histName(prevHist.gen)); err != nil {
			return fmt.Errorf("store: snapshot: %w", err)
		}
	}
	return nil
}

// appendHistory writes and syncs one rotation's history records and
// advances s.hist to cover them. Until this Store has written history,
// the records passed since Open are the whole history: the recovered
// file is dropped from s.hist and a new one is created for generation
// gen once there is something to write.
func (s *Store) appendHistory(gen uint64, history [][]byte) error {
	if s.histFile == nil {
		s.hist = histRef{}
	}
	if len(history) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range history {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	if s.histFile == nil {
		f, err := s.backend.Create(histName(gen))
		if err != nil {
			return err
		}
		s.histFile = f
		s.hist.gen = gen
	}
	if _, err := s.histFile.Write(buf); err != nil {
		return err
	}
	if err := s.histFile.Sync(); err != nil {
		return err
	}
	s.hist.n += uint64(len(buf))
	s.stats.HistoryAppends += uint64(len(history))
	return nil
}

// Append frames rec onto the current WAL. The record is not durable
// until Sync returns.
func (s *Store) Append(rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	if _, err := s.wal.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.stats.Appends++
	s.stats.AppendedBytes += uint64(len(frame))
	s.metrics.Counter("store.appends").Inc()
	s.metrics.Counter("store.appended_bytes").Add(int64(len(frame)))
	s.metrics.Observe("store.append_latency", time.Since(start))
	return nil
}

// AppendAll frames every record onto the current WAL in one write — the
// group-commit write set. Record boundaries survive (each record keeps
// its own frame and checksum, so recovery and torn-tail semantics are
// identical to len(recs) Appends); only the syscall count changes. The
// records are not durable until Sync returns.
func (s *Store) AppendAll(recs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	s.stats.Appends += uint64(len(recs))
	s.stats.AppendedBytes += uint64(len(buf))
	s.metrics.Counter("store.appends").Add(int64(len(recs)))
	s.metrics.Counter("store.appended_bytes").Add(int64(len(buf)))
	s.metrics.Observe("store.append_latency", time.Since(start))
	return nil
}

// Sync makes every appended record durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoSnapshot
	}
	start := time.Now()
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.stats.Syncs++
	s.metrics.Counter("store.syncs").Inc()
	s.metrics.Observe("store.sync_latency", time.Since(start))
	return nil
}

// Segment is one complete generation read back from the backend: the
// history the snapshot covers, the snapshot state, and every valid WAL
// record appended after it. It is the unit a replication bootstrap
// ships to a follower — applying History, State, then Records
// reproduces exactly the durable state of this store.
type Segment struct {
	// Generation is the segment's generation number.
	Generation uint64

	// History is the history prefix the snapshot covers, in append order.
	History [][]byte

	// State is the snapshot payload the generation started from.
	State []byte

	// Records are the WAL records of this generation, in append order.
	Records [][]byte
}

// ReadSegment re-reads the current generation's snapshot, its history
// prefix, and the valid prefix of its WAL from the backend. Call it
// quiesced (no append/sync in flight) — typically right after
// Open+WriteSnapshot or with the owning provider's committer idle — so
// the WAL read is a consistent prefix of committed groups.
func (s *Store) ReadSegment() (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil && s.stats.Snapshots == 0 {
		return Segment{}, ErrNoSnapshot
	}
	data, err := s.backend.ReadFile(snapName(s.gen))
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	gen, hist, state, err := decodeSnapshot(data)
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	if gen != s.gen {
		return Segment{}, fmt.Errorf("store: read segment: snapshot generation %d, store at %d", gen, s.gen)
	}
	history, err := readHistory(s.backend, hist)
	if err != nil {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	seg := Segment{Generation: s.gen, History: history, State: state}
	walData, err := s.backend.ReadFile(walName(s.gen))
	if err == nil {
		seg.Records = scanWAL(walData).records
	} else if !errors.Is(err, ErrNotExist) {
		return Segment{}, fmt.Errorf("store: read segment: %w", err)
	}
	return seg, nil
}

// Stats returns a copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the WAL and history handles without syncing. Call
// Sync first for a clean shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.histFile != nil {
		err = s.histFile.Close()
		s.histFile = nil
	}
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
		s.wal = nil
	}
	return err
}
