package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
)

// openFresh opens a store over b and bootstraps the first generation.
func openFresh(t *testing.T, b Backend, state []byte) *Store {
	t.Helper()
	s, err := Open(b)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if s.Snapshot() != nil {
		t.Fatalf("virgin backend returned a snapshot")
	}
	if err := s.WriteSnapshot(state, 0, nil); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return s
}

func TestWALRoundTrip(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("state-0"))

	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%03d-%s", i, string(make([]byte, i*7))))
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("state-0")) {
		t.Fatalf("snapshot = %q, want state-0", got)
	}
	recs := r.Records()
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	st := r.Stats()
	if st.TruncatedBytes != 0 || st.SkippedSnapshots != 0 {
		t.Fatalf("clean log reported damage: %+v", st)
	}
}

func TestAppendBeforeSnapshot(t *testing.T) {
	s, err := Open(NewMemBackend())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Append([]byte("x")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Append before snapshot: %v, want ErrNoSnapshot", err)
	}
	if err := s.Sync(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Sync before snapshot: %v, want ErrNoSnapshot", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append: %v, want ErrRecordTooLarge", err)
	}
}

// TestTornTail cuts the WAL mid-frame at every possible byte boundary
// and checks recovery keeps exactly the records whose frames fully
// survived.
func TestTornTail(t *testing.T) {
	var full []byte
	var frames []int // cumulative frame-end offsets
	for i := 0; i < 5; i++ {
		rec := []byte(fmt.Sprintf("payload-%d", i))
		var err error
		full, err = appendFrame(full, rec)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, len(full))
	}
	for cut := 0; cut <= len(full); cut++ {
		scan := scanWAL(full[:cut])
		wantRecs := 0
		for _, end := range frames {
			if end <= cut {
				wantRecs++
			}
		}
		if len(scan.records) != wantRecs {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(scan.records), wantRecs)
		}
		if scan.validBytes+scan.truncatedBytes != cut {
			t.Fatalf("cut=%d: valid %d + truncated %d != %d", cut, scan.validBytes, scan.truncatedBytes, cut)
		}
	}
}

func TestTrailingGarbage(t *testing.T) {
	var full []byte
	for i := 0; i < 3; i++ {
		var err error
		full, err = appendFrame(full, []byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	garbage := append(append([]byte(nil), full...), 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0x01)
	scan := scanWAL(garbage)
	if len(scan.records) != 3 {
		t.Fatalf("recovered %d records under trailing garbage, want 3", len(scan.records))
	}
	if scan.truncatedBytes != len(garbage)-len(full) {
		t.Fatalf("truncated %d bytes, want %d", scan.truncatedBytes, len(garbage)-len(full))
	}
}

// TestWALBitFlips flips every bit of a framed WAL and checks the
// damaged record (and everything after it) is dropped, never accepted
// with altered contents.
func TestWALBitFlips(t *testing.T) {
	var full []byte
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma")}
	for _, r := range recs {
		var err error
		full, err = appendFrame(full, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	for bit := 0; bit < len(full)*8; bit++ {
		mut := append([]byte(nil), full...)
		mut[bit/8] ^= 1 << (bit % 8)
		scan := scanWAL(mut)
		for i, got := range scan.records {
			if i >= len(recs) || !bytes.Equal(got, recs[i]) {
				t.Fatalf("bit %d: accepted altered record %d", bit, i)
			}
		}
	}
}

// TestSnapshotBitFlips flips every bit of an encoded snapshot and
// requires decode to reject every mutation.
func TestSnapshotBitFlips(t *testing.T) {
	enc := encodeSnapshot(7, histRef{gen: 3, n: 40}, []byte("provider-state-blob"))
	if _, _, _, err := decodeSnapshot(enc); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	for bit := 0; bit < len(enc)*8; bit++ {
		mut := append([]byte(nil), enc...)
		mut[bit/8] ^= 1 << (bit % 8)
		_, _, _, err := decodeSnapshot(mut)
		if err == nil {
			t.Fatalf("bit %d: tampered snapshot accepted", bit)
		}
		// Damage must read as damage (Open falls back past it), never as
		// another envelope version (Open refuses those).
		if errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("bit %d: tampered snapshot reported as %v", bit, err)
		}
	}
}

// TestSnapshotRotation checks generations advance, old files are
// retired, and only the newest state is recovered.
func TestSnapshotRotation(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("gen-1"))
	for i := 2; i <= 4; i++ {
		if err := s.Append([]byte(fmt.Sprintf("wal-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteSnapshot([]byte(fmt.Sprintf("gen-%d", i)), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("files after rotation = %v, want exactly one snap + one wal", names)
	}
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("gen-4")) {
		t.Fatalf("recovered %q, want gen-4", got)
	}
	if len(r.Records()) != 0 {
		t.Fatalf("recovered %d WAL records after rotation, want 0", len(r.Records()))
	}
	if r.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", r.Generation())
	}
}

// TestCrashMidSnapshot crashes at every hookable operation during a
// snapshot rotation and checks recovery always lands on a consistent
// (snapshot, WAL) pair: either the old generation with its records or
// the new one with an empty WAL.
func TestCrashMidSnapshot(t *testing.T) {
	for crashAt := 0; ; crashAt++ {
		b := NewMemBackend()
		s := openFresh(t, b, []byte("old"))
		if err := s.Append([]byte("r1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}

		n := 0
		fired := false
		b.SetCrashHook(func(CrashEvent) bool {
			n++
			if n-1 == crashAt {
				fired = true
				return true
			}
			return false
		})
		err := s.WriteSnapshot([]byte("new"), 0, nil)
		b.SetCrashHook(nil)
		if !fired {
			if err != nil {
				t.Fatalf("crashAt=%d: unexpected error %v", crashAt, err)
			}
			break // exhausted all crash points
		}
		if err == nil {
			t.Fatalf("crashAt=%d: WriteSnapshot survived an injected crash", crashAt)
		}

		b.Recover(nil) // lose all unsynced bytes
		r, openErr := Open(b)
		if openErr != nil {
			t.Fatalf("crashAt=%d: reopen: %v", crashAt, openErr)
		}
		switch string(r.Snapshot()) {
		case "old":
			if len(r.Records()) != 1 || string(r.Records()[0]) != "r1" {
				t.Fatalf("crashAt=%d: old generation lost its WAL: %v", crashAt, r.Records())
			}
		case "new":
			if len(r.Records()) != 0 {
				t.Fatalf("crashAt=%d: new generation has stale records", crashAt)
			}
		default:
			t.Fatalf("crashAt=%d: recovered snapshot %q", crashAt, r.Snapshot())
		}
	}
}

// TestCrashLosesUnsyncedAppends checks an append without a sync is
// gone after crash+recovery, while synced appends survive.
func TestCrashLosesUnsyncedAppends(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	b.SetCrashHook(func(CrashEvent) bool { return true })
	if err := s.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash arm: %v, want ErrCrashed", err)
	}
	b.SetCrashHook(nil)
	b.Recover(nil)
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "durable" {
		t.Fatalf("recovered %q, want exactly [durable]", r.Records())
	}
}

// TestRecoverTornWrite exercises the tear callback: keep a prefix of
// the pending bytes plus garbage, and confirm scan-level truncation
// discards the damage.
func TestRecoverTornWrite(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]byte("torn-away")); err != nil {
		t.Fatal(err)
	}
	// No sync: the second record sits in the unsynced window.
	b.Recover(func(name string, pending []byte) []byte {
		half := pending[:len(pending)/2]
		return append(append([]byte(nil), half...), 0xAA, 0x55, 0xAA)
	})
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "committed" {
		t.Fatalf("recovered %q, want exactly [committed]", r.Records())
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Fatalf("torn tail not reported in stats")
	}
}

// TestCorruptSnapshotFallsBack plants a valid old generation and a
// corrupted newer snapshot; Open must fall back to the old one.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("good"))
	if err := s.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Forge a newer, corrupt snapshot file.
	f, err := b.Create(snapName(9))
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeSnapshot(9, histRef{}, []byte("evil"))
	enc[len(enc)-1] ^= 0xFF
	if _, err := f.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("good")) {
		t.Fatalf("recovered %q, want good", got)
	}
	if len(r.Records()) != 1 || string(r.Records()[0]) != "tail" {
		t.Fatalf("recovered records %q, want [tail]", r.Records())
	}
	if r.Stats().SkippedSnapshots != 1 {
		t.Fatalf("SkippedSnapshots = %d, want 1", r.Stats().SkippedSnapshots)
	}
	// The corrupt snapshot must have been cleaned up.
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == snapName(9) {
			t.Fatalf("corrupt snapshot not removed: %v", names)
		}
	}
}

// TestDirBackendRoundTrip runs the same write/recover cycle over a real
// directory.
func TestDirBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := openFresh(t, b, []byte("disk-state"))
	for i := 0; i < 10; i++ {
		if err := s.Append([]byte(fmt.Sprintf("disk-rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	b2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot(); !bytes.Equal(got, []byte("disk-state")) {
		t.Fatalf("recovered %q, want disk-state", got)
	}
	if len(r.Records()) != 10 {
		t.Fatalf("recovered %d records, want 10", len(r.Records()))
	}
}

// histRecs builds the history records prefix-from .. prefix-(to-1).
func histRecs(prefix string, from, to int) [][]byte {
	var out [][]byte
	for i := from; i < to; i++ {
		out = append(out, []byte(fmt.Sprintf("%s-%d", prefix, i)))
	}
	return out
}

// equalRecords reports whether two record lists are byte-identical.
func equalRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestHistoryLogAcrossRotations checks each rotation appends only its
// delta, Open recovers the covered history, the first rotation after
// Open starts a new history file and retires the old one, and
// ReadSegment carries the history.
func TestHistoryLogAcrossRotations(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("s1"))
	if err := s.WriteSnapshot([]byte("s2"), 0, histRecs("h", 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot([]byte("s3"), 3, histRecs("h", 3, 5)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().HistoryAppends; got != 5 {
		t.Fatalf("HistoryAppends = %d, want 5 (each record written once)", got)
	}
	seg, err := s.ReadSegment()
	if err != nil {
		t.Fatal(err)
	}
	if !equalRecords(seg.History, histRecs("h", 0, 5)) || string(seg.State) != "s3" {
		t.Fatalf("segment history %q state %q", seg.History, seg.State)
	}
	s.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRecords(r.History(), histRecs("h", 0, 5)) {
		t.Fatalf("recovered history %q", r.History())
	}
	if err := r.WriteSnapshot([]byte("s4"), 0, histRecs("h", 0, 6)); err != nil {
		t.Fatal(err)
	}
	if r.History() != nil {
		t.Fatal("store kept the recovered history after rotating")
	}
	names, _ := b.List()
	var hists []string
	for _, n := range names {
		if strings.HasPrefix(n, histPrefix) {
			hists = append(hists, n)
		}
	}
	if len(hists) != 1 || hists[0] != histName(r.Generation()) {
		t.Fatalf("history files after the first rotation since Open = %v, want only %s",
			hists, histName(r.Generation()))
	}
	r.Close()
	r2, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRecords(r2.History(), histRecs("h", 0, 6)) {
		t.Fatalf("history after re-rotation %q", r2.History())
	}

	// Prior 0 with no records declares the whole history empty: a
	// follower re-seeded from a lineage with none must not keep the old
	// file.
	if err := r2.WriteSnapshot([]byte("reseeded"), 0, nil); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	r3, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if r3.History() != nil {
		t.Fatalf("history after an empty first rotation %q, want none", r3.History())
	}
	names, _ = b.List()
	for _, n := range names {
		if strings.HasPrefix(n, histPrefix) {
			t.Fatalf("history file %s survived a rotation that replaced the history with none", n)
		}
	}
}

// backendFiles returns every file of b with its durable contents.
func backendFiles(t *testing.T, b *MemBackend) map[string]string {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, n := range names {
		data, err := b.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		files[n] = string(data)
	}
	return files
}

// TestWriteSnapshotChecksPrior checks a history delta whose prior count
// is not what the store has written since Open is refused before
// anything is written: whether the caller skipped records, repeated
// them, or took a freshly opened store for one it had been appending to.
func TestWriteSnapshotChecksPrior(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.WriteSnapshot([]byte("s"), 0, histRecs("h", 0, 3)); err != nil {
		t.Fatal(err)
	}
	before := backendFiles(t, b)
	for _, prior := range []uint64{0, 2, 4} {
		if err := s.WriteSnapshot([]byte("bad"), prior, histRecs("h", 3, 4)); err == nil {
			t.Fatalf("prior %d accepted, store has written 3", prior)
		}
	}
	if got := backendFiles(t, b); !reflect.DeepEqual(got, before) {
		t.Fatalf("a refused WriteSnapshot changed the backend:\n%v\nwant\n%v", got, before)
	}
	if err := s.WriteSnapshot([]byte("s2"), 3, histRecs("h", 3, 4)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	before = backendFiles(t, b)
	if err := r.WriteSnapshot([]byte("bad"), 4, histRecs("h", 4, 5)); err == nil {
		t.Fatal("a reopened store accepted a delta appended after its recovered history")
	}
	if got := backendFiles(t, b); !reflect.DeepEqual(got, before) {
		t.Fatal("a refused WriteSnapshot after Open changed the backend")
	}
	if !equalRecords(r.History(), histRecs("h", 0, 4)) {
		t.Fatalf("recovered history %q after a refused rotation", r.History())
	}
}

// TestWriteSnapshotAfterClose checks a closed store refuses to rotate
// and leaves its history file as it was, rather than starting a new one
// that holds only the delta.
func TestWriteSnapshotAfterClose(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.WriteSnapshot([]byte("s"), 0, histRecs("h", 0, 3)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	before := backendFiles(t, b)
	if err := s.WriteSnapshot([]byte("late"), 3, histRecs("h", 3, 4)); !errors.Is(err, errClosed) {
		t.Fatalf("WriteSnapshot after Close = %v, want errClosed", err)
	}
	if got := backendFiles(t, b); !reflect.DeepEqual(got, before) {
		t.Fatal("WriteSnapshot after Close changed the backend")
	}
	r, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRecords(r.History(), histRecs("h", 0, 3)) || string(r.Snapshot()) != "s" {
		t.Fatalf("after a refused late rotation: snapshot %q history %q", r.Snapshot(), r.History())
	}
}

// TestCrashMidRotationWithHistory crashes at every backend operation of
// a rotation that has history to write — history create (first rotation
// since Open), write and sync, snapshot create, write, sync and rename,
// WAL create, and removal of the old generation — and recovers under
// three tears of the unsynced bytes: lost, kept whole, and kept with
// garbage after them. Recovery must land on the old generation with its
// history and WAL record, or on the new one with the full history, and
// never read history past the length the snapshot records. The next
// rotation after the restart must leave a history file Open reads back
// whole.
func TestCrashMidRotationWithHistory(t *testing.T) {
	tears := map[string]func(string, []byte) []byte{
		"lost": nil,
		"whole": func(_ string, p []byte) []byte {
			return p
		},
		"garbage": func(_ string, p []byte) []byte {
			return append(p[:len(p)/2:len(p)/2], 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x01)
		},
	}
	hit := map[string]bool{}
	for _, fresh := range []bool{false, true} {
		for tearName, tear := range tears {
			for crashAt := 0; ; crashAt++ {
				b := NewMemBackend()
				s := openFresh(t, b, []byte("old"))
				if err := s.WriteSnapshot([]byte("old"), 0, histRecs("h", 0, 2)); err != nil {
					t.Fatal(err)
				}
				if err := s.Append([]byte("r1")); err != nil {
					t.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				if fresh {
					// Reopen, so the rotation under test is the first since
					// Open: it starts a new history file with everything.
					s.Close()
					var err error
					if s, err = Open(b); err != nil {
						t.Fatal(err)
					}
				}
				prior, delta := uint64(2), histRecs("h", 2, 4)
				if fresh {
					prior, delta = 0, histRecs("h", 0, 4)
				}

				n := 0
				var fired CrashEvent
				b.SetCrashHook(func(ev CrashEvent) bool {
					n++
					if n-1 == crashAt {
						fired = ev
						return true
					}
					return false
				})
				err := s.WriteSnapshot([]byte("new"), prior, delta)
				b.SetCrashHook(nil)
				if fired.Op == 0 {
					if err != nil {
						t.Fatalf("crashAt=%d: unexpected error %v", crashAt, err)
					}
					break
				}
				name := fmt.Sprintf("fresh=%v/%s/crashAt=%d (%v %v %s)", fresh, tearName, crashAt, fired.Phase, fired.Op, fired.Name)
				hit[fmt.Sprintf("%v %s", fired.Op, strings.SplitN(fired.Name, "-", 2)[0])] = true
				if err == nil {
					t.Fatalf("%s: WriteSnapshot survived an injected crash", name)
				}

				b.Recover(tear)
				r, err := Open(b)
				if err != nil {
					t.Fatalf("%s: reopen: %v", name, err)
				}
				var wantHist, wantRecs [][]byte
				switch string(r.Snapshot()) {
				case "old":
					wantHist, wantRecs = histRecs("h", 0, 2), [][]byte{[]byte("r1")}
				case "new":
					wantHist = histRecs("h", 0, 4)
				default:
					t.Fatalf("%s: recovered snapshot %q", name, r.Snapshot())
				}
				if !equalRecords(r.History(), wantHist) || !equalRecords(r.Records(), wantRecs) {
					t.Fatalf("%s: snapshot %q recovered history %q records %q",
						name, r.Snapshot(), r.History(), r.Records())
				}

				// The restart's rotation writes the whole history into a new
				// file; reopening must read exactly that back.
				full := append(r.History(), []byte("after-restart"))
				if err := r.WriteSnapshot([]byte("restarted"), 0, full); err != nil {
					t.Fatalf("%s: rotation after restart: %v", name, err)
				}
				r.Close()
				r2, err := Open(b)
				if err != nil {
					t.Fatalf("%s: reopen after restart rotation: %v", name, err)
				}
				if !equalRecords(r2.History(), full) {
					t.Fatalf("%s: history after restart rotation %q, want %q", name, r2.History(), full)
				}
			}
		}
	}
	for _, want := range []string{
		"create hist", "write hist", "sync hist",
		"create snap", "write snap", "sync snap", "rename snap",
		"create wal", "remove snap", "remove wal", "remove hist",
	} {
		if !hit[want] {
			t.Errorf("crash matrix never crashed at %q (hit %v)", want, hit)
		}
	}
}

// TestOpenRefusesDamagedHistory checks Open fails loudly when the
// history prefix a snapshot covers is missing or damaged, instead of
// restoring state without the history it builds on.
func TestOpenRefusesDamagedHistory(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, nil)
	if err := s.WriteSnapshot([]byte("s"), 0, histRecs("h", 0, 3)); err != nil {
		t.Fatal(err)
	}
	hist := histName(s.Generation())
	s.Close()
	data, err := b.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	f, err := b.Create(hist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b); err == nil {
		t.Fatal("Open accepted a snapshot whose covered history is damaged")
	}
	if err := b.Remove(hist); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b); err == nil {
		t.Fatal("Open accepted a snapshot whose history file is missing")
	}
}

// TestOpenRefusesOtherSnapshotVersion checks an intact snapshot in an
// envelope version this build does not read fails Open, rather than
// being skipped (and then deleted) like a damaged one.
func TestOpenRefusesOtherSnapshotVersion(t *testing.T) {
	b := NewMemBackend()
	s := openFresh(t, b, []byte("state"))
	s.Close()
	enc := encodeSnapshot(1, histRef{}, []byte("state"))
	enc[4] = 1
	body := enc[:len(enc)-4]
	enc = binary.BigEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	f, err := b.Create(snapName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(enc); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(b); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("Open over a version-1 snapshot: %v, want ErrSnapshotVersion", err)
	}
	if _, err := b.ReadFile(snapName(1)); err != nil {
		t.Fatalf("refused snapshot was removed: %v", err)
	}
}
