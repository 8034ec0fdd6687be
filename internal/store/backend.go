// Package store is the provider's durability substrate: a CRC-framed,
// length-prefixed append-only write-ahead log plus atomic snapshot files
// (write-temp, fsync, rename), organized into generations so recovery is
// always "latest valid snapshot + one WAL tail". The package is
// deliberately generic — it moves opaque byte records and state blobs —
// so internal/core decides what provider state means and this layer
// decides only how it survives a crash.
//
// Storage is abstracted behind Backend so the same Store runs over a
// real directory (DirBackend, used by cmd/tpserver) and over an
// in-memory filesystem with simulated crash semantics (MemBackend, used
// by the crash-injection experiments). MemBackend models the one
// property that matters for crash safety: bytes written but not yet
// synced may be lost — wholly, partially (a torn write), or replaced by
// garbage — while synced bytes survive.
package store

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Backend errors.
var (
	// ErrCrashed is returned by every operation on a backend (or a store
	// over it) that has suffered a simulated crash. The owner is dead;
	// recovery happens by re-opening the backend into a fresh Store.
	ErrCrashed = errors.New("store: backend crashed")

	// ErrNotExist is returned when reading a file that does not exist.
	ErrNotExist = errors.New("store: file does not exist")
)

// Backend is a minimal flat-namespace filesystem: enough to implement a
// WAL and atomic snapshot rotation, small enough to simulate crash
// semantics exactly.
//
// Create, Rename, and Remove are modelled as durable at return (the real
// directory backend fsyncs the directory); only file *data* written via
// File.Write has the written-but-not-synced window.
type Backend interface {
	// List returns the names of all existing files, in any order.
	List() ([]string, error)

	// ReadFile returns the full current contents of a file.
	ReadFile(name string) ([]byte, error)

	// Create creates (or truncates) a file and opens it for appending.
	Create(name string) (File, error)

	// Rename atomically replaces newname with oldname's file.
	Rename(oldname, newname string) error

	// Remove deletes a file. Removing a missing file is not an error.
	Remove(name string) error
}

// File is an append-only handle.
type File interface {
	// Write appends p to the file. The bytes are not durable until Sync.
	Write(p []byte) (int, error)

	// Sync makes everything written so far durable.
	Sync() error

	// Close releases the handle without an implicit Sync.
	Close() error
}

// Op labels a backend operation for crash hooks.
type Op uint8

// Backend operations observable by a crash hook.
const (
	// OpCreate is file creation/truncation.
	OpCreate Op = iota + 1

	// OpWrite is a data append to an open file.
	OpWrite

	// OpSync is an fsync of an open file.
	OpSync

	// OpRename is an atomic rename.
	OpRename

	// OpRemove is a file deletion.
	OpRemove

	// OpSyncDir is an fsync of the backing directory itself — the
	// metadata barrier DirBackend issues after every create, rename, and
	// remove so those operations are durable at return. MemBackend never
	// emits it (its namespace operations are modelled as durable).
	OpSyncDir
)

// String names the op for fault-plan tables.
func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "sync-dir"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Phase says whether a crash hook fires before the operation takes any
// effect or after it has fully taken effect.
type Phase uint8

// Crash phases.
const (
	// PhaseBefore crashes before the operation applies: a write never
	// reaches the file, a rename never happens.
	PhaseBefore Phase = iota + 1

	// PhaseAfter crashes after the operation applied (for a write, the
	// bytes are in the unsynced window; for a sync, they are durable).
	PhaseAfter
)

// String names the phase.
func (p Phase) String() string {
	if p == PhaseBefore {
		return "before"
	}
	return "after"
}

// CrashEvent describes one hookable backend operation.
type CrashEvent struct {
	// Name is the file the operation targets.
	Name string

	// Op is the operation.
	Op Op

	// Phase is when the hook is being consulted.
	Phase Phase
}

// CrashHook decides, per operation and phase, whether the backend
// crashes now. Implementations must be deterministic (internal/faults
// provides one driven by sim.Rand).
type CrashHook func(CrashEvent) bool

// memFile is one MemBackend file: durable bytes plus the unsynced
// window.
type memFile struct {
	durable []byte
	pending []byte
}

// MemBackend is a deterministic in-memory Backend with simulated crash
// semantics. Safe for concurrent use.
type MemBackend struct {
	mu      sync.Mutex
	files   map[string]*memFile
	hook    CrashHook
	crashed bool
}

var _ Backend = (*MemBackend)(nil)

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{files: make(map[string]*memFile)}
}

// SetCrashHook installs (or removes, with nil) the crash decision hook.
// Install it only after any setup writes that must not crash.
func (b *MemBackend) SetCrashHook(h CrashHook) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hook = h
}

// consult runs the hook for one event; on a crash verdict the backend
// enters the dead state. Must be called with b.mu held.
func (b *MemBackend) consult(ev CrashEvent) bool {
	if b.crashed {
		return true
	}
	if b.hook != nil && b.hook(ev) {
		b.crashed = true
	}
	return b.crashed
}

// Recover materializes the crash's data loss and revives the backend:
// for every file the durable bytes survive, and the unsynced window is
// replaced by whatever tear(name, pending) returns — nil to lose it all,
// a prefix for a torn write, or a prefix plus garbage for sector trash.
// A nil tear loses every unsynced byte. Open handles from the previous
// life keep failing; re-open files through a fresh Store.
func (b *MemBackend) Recover(tear func(name string, pending []byte) []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, f := range b.files {
		var kept []byte
		if tear != nil && len(f.pending) > 0 {
			kept = tear(name, append([]byte(nil), f.pending...))
		}
		f.durable = append(f.durable, kept...)
		f.pending = nil
	}
	b.crashed = false
}

// List implements Backend.
func (b *MemBackend) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(b.files))
	for name := range b.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// ReadFile implements Backend. Reads see the full current contents,
// unsynced window included (the OS page cache serves reads).
func (b *MemBackend) ReadFile(name string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return nil, ErrCrashed
	}
	f, ok := b.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	out := make([]byte, 0, len(f.durable)+len(f.pending))
	out = append(out, f.durable...)
	return append(out, f.pending...), nil
}

// Create implements Backend.
func (b *MemBackend) Create(name string) (File, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consult(CrashEvent{Name: name, Op: OpCreate, Phase: PhaseBefore}) {
		return nil, ErrCrashed
	}
	b.files[name] = &memFile{}
	if b.consult(CrashEvent{Name: name, Op: OpCreate, Phase: PhaseAfter}) {
		return nil, ErrCrashed
	}
	return &memHandle{b: b, name: name}, nil
}

// Rename implements Backend.
func (b *MemBackend) Rename(oldname, newname string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consult(CrashEvent{Name: newname, Op: OpRename, Phase: PhaseBefore}) {
		return ErrCrashed
	}
	f, ok := b.files[oldname]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldname)
	}
	delete(b.files, oldname)
	b.files[newname] = f
	if b.consult(CrashEvent{Name: newname, Op: OpRename, Phase: PhaseAfter}) {
		return ErrCrashed
	}
	return nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.consult(CrashEvent{Name: name, Op: OpRemove, Phase: PhaseBefore}) {
		return ErrCrashed
	}
	delete(b.files, name)
	if b.consult(CrashEvent{Name: name, Op: OpRemove, Phase: PhaseAfter}) {
		return ErrCrashed
	}
	return nil
}

// memHandle is an open MemBackend file.
type memHandle struct {
	b      *MemBackend
	name   string
	closed bool
}

// Write implements File.
func (h *memHandle) Write(p []byte) (int, error) {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return 0, errors.New("store: write on closed file")
	}
	if h.b.consult(CrashEvent{Name: h.name, Op: OpWrite, Phase: PhaseBefore}) {
		return 0, ErrCrashed
	}
	f, ok := h.b.files[h.name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotExist, h.name)
	}
	f.pending = append(f.pending, p...)
	if h.b.consult(CrashEvent{Name: h.name, Op: OpWrite, Phase: PhaseAfter}) {
		return 0, ErrCrashed
	}
	return len(p), nil
}

// Sync implements File.
func (h *memHandle) Sync() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	if h.closed {
		return errors.New("store: sync on closed file")
	}
	if h.b.consult(CrashEvent{Name: h.name, Op: OpSync, Phase: PhaseBefore}) {
		return ErrCrashed
	}
	f, ok := h.b.files[h.name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, h.name)
	}
	f.durable = append(f.durable, f.pending...)
	f.pending = nil
	if h.b.consult(CrashEvent{Name: h.name, Op: OpSync, Phase: PhaseAfter}) {
		return ErrCrashed
	}
	return nil
}

// Close implements File.
func (h *memHandle) Close() error {
	h.b.mu.Lock()
	defer h.b.mu.Unlock()
	h.closed = true
	return nil
}
