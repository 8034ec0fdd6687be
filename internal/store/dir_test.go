package store

import (
	"fmt"
	"strings"
	"testing"
)

// dirOps drives one snapshot rotation, a few appends, and a second
// rotation carrying history through a DirBackend and returns the
// recorded operation sequence.
func dirOps(t *testing.T) []string {
	t.Helper()
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	b.SetOpHook(func(op Op, name string) {
		ops = append(ops, fmt.Sprintf("%s:%s", op, name))
	})
	st, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteSnapshot([]byte("gen-1-state"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAll([][]byte{[]byte("r1"), []byte("r2")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("gen-2-state"), 0, [][]byte{[]byte("h1")}); err != nil {
		t.Fatal(err)
	}
	return ops
}

// The rename-into-place discipline: snapshot data is fsynced while the
// file is still the .tmp, only then renamed, and every namespace
// operation (create, rename, remove) is immediately followed by a
// directory fsync so the metadata survives a crash at return. A missing
// directory sync after the rename is exactly the failure mode where a
// freshly rotated generation's directory entry evaporates in a crash
// and recovery silently falls back to the previous generation.
func TestDirBackendSyncOrdering(t *testing.T) {
	ops := dirOps(t)
	if len(ops) == 0 {
		t.Fatal("op hook observed nothing")
	}

	renames := 0
	for i, op := range ops {
		kind := strings.SplitN(op, ":", 2)[0]
		switch kind {
		case OpCreate.String(), OpRename.String(), OpRemove.String():
			if i+1 >= len(ops) || !strings.HasPrefix(ops[i+1], OpSyncDir.String()) {
				t.Errorf("op %d (%s) not followed by a directory sync: %v", i, op, ops)
			}
			if kind == OpRename.String() {
				renames++
				// The renamed snapshot's bytes must already be durable:
				// some file fsync precedes the rename.
				synced := false
				for _, prev := range ops[:i] {
					if strings.HasPrefix(prev, OpSync.String()+":") {
						synced = true
						break
					}
				}
				if !synced {
					t.Errorf("rename at op %d happened before any file fsync: %v", i, ops)
				}
			}
		}
	}
	if renames < 2 {
		t.Fatalf("expected both snapshot rotations to rename into place, saw %d renames: %v", renames, ops)
	}

	// The history a snapshot covers is durable before the snapshot that
	// records its length exists even as a temp file.
	histSync, snapCreate := -1, -1
	for i, op := range ops {
		switch op {
		case OpSync.String() + ":" + histName(2):
			histSync = i
		case OpCreate.String() + ":" + snapName(2) + tmpSuffix:
			snapCreate = i
		}
	}
	if histSync < 0 || snapCreate < 0 || histSync > snapCreate {
		t.Fatalf("history sync at op %d, snapshot temp create at op %d: %v", histSync, snapCreate, ops)
	}
}

// The .tmp staging name must never survive: after a rotation the
// directory holds only final-named files, so recovery never has to
// guess about half-written snapshots.
func TestDirBackendLeavesNoTmpFiles(t *testing.T) {
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for gen := 0; gen < 3; gen++ {
		if err := st.WriteSnapshot([]byte(fmt.Sprintf("state-%d", gen)), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			t.Fatalf("stray staging file %q left behind: %v", name, names)
		}
	}
}

// Crash immediately after the snapshot rename: the new generation is
// durable (the rename itself completed), so recovery must come up on
// the new state, not fall back.
func TestRecoveryAfterCrashOnSnapshotRename(t *testing.T) {
	b := NewMemBackend()
	st, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("old-state"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAll([][]byte{[]byte("r1")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	b.SetCrashHook(func(ev CrashEvent) bool {
		return ev.Op == OpRename && ev.Phase == PhaseAfter
	})
	if err := st.WriteSnapshot([]byte("new-state"), 0, nil); err == nil {
		t.Fatal("snapshot survived a scheduled crash")
	}
	st.Close()

	b.SetCrashHook(nil)
	b.Recover(nil)
	st2, err := Open(b)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	if got := string(st2.Snapshot()); got != "new-state" {
		t.Fatalf("recovered snapshot = %q, want the renamed-in generation", got)
	}
	if len(st2.Records()) != 0 {
		t.Fatalf("recovered WAL = %v, want empty after rotation", st2.Records())
	}
}

// Crash before the rename applies: the staging file is garbage, the old
// generation (snapshot + its WAL tail) must be what recovery loads.
func TestRecoveryAfterCrashBeforeSnapshotRename(t *testing.T) {
	b := NewMemBackend()
	st, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteSnapshot([]byte("old-state"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendAll([][]byte{[]byte("r1")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	b.SetCrashHook(func(ev CrashEvent) bool {
		return ev.Op == OpRename && ev.Phase == PhaseBefore
	})
	if err := st.WriteSnapshot([]byte("new-state"), 0, nil); err == nil {
		t.Fatal("snapshot survived a scheduled crash")
	}
	st.Close()

	b.SetCrashHook(nil)
	b.Recover(nil)
	st2, err := Open(b)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	if got := string(st2.Snapshot()); got != "old-state" {
		t.Fatalf("recovered snapshot = %q, want the previous generation", got)
	}
	if len(st2.Records()) != 1 || string(st2.Records()[0]) != "r1" {
		t.Fatalf("recovered WAL = %q, want the old generation's tail", st2.Records())
	}
}
