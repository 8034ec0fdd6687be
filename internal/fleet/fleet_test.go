package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"unitp/internal/core"
	"unitp/internal/store"
)

// ---------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------

// The ring must spread realistic account populations: no empty shard,
// and no shard hoarding more than a few times its fair share.
func TestRingSpread(t *testing.T) {
	r := NewRing(8, 0)
	counts := make([]int, 8)
	for i := 0; i < 1000; i++ {
		counts[r.Shard(fmt.Sprintf("user-%d", i))]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Errorf("shard %d owns no keys", s)
		}
		if n > 3*1000/8 {
			t.Errorf("shard %d owns %d of 1000 keys (fair share 125)", s, n)
		}
	}
}

// Sequentially numbered account names differ only in trailing bytes —
// the exact pattern raw FNV-1a routes onto a single arc because its
// high bits barely move. The finalizer must keep such populations
// spread; this is a regression test for a routing collapse that sent
// an entire fleet's traffic to one shard.
func TestRingSpreadsSequentialNames(t *testing.T) {
	r := NewRing(8, 0)
	hit := map[int]bool{}
	for i := 0; i < 64; i++ {
		hit[r.Shard(fmt.Sprintf("acct-%05d", i))] = true
	}
	if len(hit) < 6 {
		t.Fatalf("64 sequential names landed on only %d of 8 shards", len(hit))
	}
}

// Same parameters, same key → same shard, across independently built
// rings.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(5, 16), NewRing(5, 16)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("rings disagree on %q", key)
		}
	}
}

// Consistent hashing's point: growing the fleet moves only the keys the
// new shard's arcs claim — roughly 1/(n+1) of them, not everything.
func TestRingReshardStability(t *testing.T) {
	before, after := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("user-%d", i)
		a, b := before.Shard(key), after.Shard(key)
		if a != b {
			moved++
			if b != 4 {
				t.Errorf("%q moved from shard %d to old shard %d; only the new shard may gain keys", key, a, b)
			}
		}
	}
	if moved == 0 || moved > keys*2/5 {
		t.Fatalf("%d of %d keys moved adding a 5th shard, want roughly 1/5", moved, keys)
	}
}

// ---------------------------------------------------------------------
// Wire
// ---------------------------------------------------------------------

func TestWireRoundTrips(t *testing.T) {
	boot := bootstrapFrame{Epoch: 3, UpTo: 17, Gen: 2, History: [][]byte{[]byte("h1")},
		State: []byte("state"), Records: [][]byte{[]byte("r1"), []byte("r2")}}
	b, a, k, err := decodeRepFrame(encodeBootstrap(boot))
	if err != nil || a != nil || k != nil || b == nil {
		t.Fatalf("bootstrap decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if b.Epoch != 3 || b.UpTo != 17 || b.Gen != 2 || string(b.State) != "state" ||
		len(b.History) != 1 || !bytes.Equal(b.History[0], []byte("h1")) ||
		len(b.Records) != 2 || !bytes.Equal(b.Records[1], []byte("r2")) {
		t.Fatalf("bootstrap round trip mangled: %+v", b)
	}

	app := appendFrame{Epoch: 4, From: 9, Groups: [][]byte{[]byte("g")}}
	b, a, k, err = decodeRepFrame(encodeAppend(app))
	if err != nil || b != nil || k != nil || a == nil {
		t.Fatalf("append decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if a.Epoch != 4 || a.From != 9 || len(a.Groups) != 1 {
		t.Fatalf("append round trip mangled: %+v", a)
	}

	ack := ackFrame{Epoch: 5, Applied: 11, Status: ackGap}
	b, a, k, err = decodeRepFrame(encodeAck(ack))
	if err != nil || b != nil || a != nil || k == nil {
		t.Fatalf("ack decode: b=%v a=%v k=%v err=%v", b, a, k, err)
	}
	if k.Epoch != 5 || k.Applied != 11 || k.Status != ackGap {
		t.Fatalf("ack round trip mangled: %+v", k)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	for _, frame := range [][]byte{nil, {}, {0xFF}, []byte("not a frame"),
		encodeAck(ackFrame{})[:3]} {
		if _, _, _, err := decodeRepFrame(frame); err == nil {
			t.Errorf("decoded garbage frame %q", frame)
		}
	}
}

// ---------------------------------------------------------------------
// Follower
// ---------------------------------------------------------------------

func mustAck(t *testing.T, f *Follower, frame []byte) *ackFrame {
	t.Helper()
	resp, err := f.Handle(frame)
	if err != nil {
		t.Fatalf("follower errored: %v", err)
	}
	_, _, ack, err := decodeRepFrame(resp)
	if err != nil || ack == nil {
		t.Fatalf("follower response was not an ack: %v", err)
	}
	return ack
}

func bootFollower(t *testing.T, f *Follower, epoch, upTo uint64) {
	t.Helper()
	ack := mustAck(t, f, (encodeBootstrap(bootstrapFrame{
		Epoch: epoch, UpTo: upTo, Gen: 1, State: []byte("snap"),
	})))
	if ack.Status != ackOK || ack.Applied != upTo {
		t.Fatalf("bootstrap ack = %+v", ack)
	}
}

func TestFollowerAppliesAndDeduplicates(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())
	bootFollower(t, f, 1, 0)

	groups := [][]byte{[]byte("g1"), []byte("g2")}
	ack := mustAck(t, f, (encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: groups})))
	if ack.Status != ackOK || ack.Applied != 2 {
		t.Fatalf("first append ack = %+v", ack)
	}

	// The same batch re-shipped (its ack was lost) must be a no-op.
	ack = mustAck(t, f, (encodeAppend(appendFrame{Epoch: 1, From: 0, Groups: groups})))
	if ack.Status != ackOK || ack.Applied != 2 {
		t.Fatalf("duplicate append ack = %+v", ack)
	}

	// A partial overlap applies only the unseen suffix.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 1, Groups: [][]byte{[]byte("g2"), []byte("g3")}})))
	if ack.Status != ackOK || ack.Applied != 3 {
		t.Fatalf("overlap append ack = %+v", ack)
	}
	if f.Applied() != 3 {
		t.Fatalf("Applied() = %d, want 3", f.Applied())
	}
}

func TestFollowerRefusesGapsAndStaleEpochs(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())
	bootFollower(t, f, 2, 0)

	// A frame starting past the applied offset is a hole, not progress.
	ack := mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 2, From: 5, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackGap || ack.Applied != 0 {
		t.Fatalf("gap ack = %+v", ack)
	}

	// A deposed primary's epoch is refused — it can never collect the
	// acks it needs to answer a client.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 0, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("stale-epoch ack = %+v", ack)
	}
	// Same for a stale bootstrap.
	ack = mustAck(t, f, (encodeBootstrap(bootstrapFrame{Epoch: 1})))
	if ack.Status != ackFenced {
		t.Fatalf("stale-bootstrap ack = %+v", ack)
	}
}

func TestFollowerUnbootstrappedAndRetired(t *testing.T) {
	f := NewFollower(0, 0, store.NewMemBackend())

	// Appends before any bootstrap are refused, not applied into nothing.
	ack := mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 1, From: 0, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("unbootstrapped append ack = %+v", ack)
	}
	if _, err := f.Promote(nil); err == nil {
		t.Fatal("promoted a follower that was never bootstrapped")
	}

	bootFollower(t, f, 1, 4)
	if _, err := f.Promote(func(st *store.Store) (*core.Provider, error) {
		return nil, nil
	}); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// A retired follower refuses everything.
	ack = mustAck(t, f, (encodeAppend(appendFrame{
		Epoch: 9, From: 4, Groups: [][]byte{[]byte("g")}})))
	if ack.Status != ackFenced {
		t.Fatalf("retired append ack = %+v", ack)
	}
	if _, err := f.Promote(func(st *store.Store) (*core.Provider, error) {
		return nil, nil
	}); err == nil {
		t.Fatal("promoted a retired follower twice")
	}
}

// ---------------------------------------------------------------------
// Router refusals
// ---------------------------------------------------------------------

// A batch whose debit accounts hash to different shards must be refused
// outright: routing it by its first account would execute it on a shard
// where the other accounts don't exist, a silent wrong-shard rejection
// for a perfectly valid batch.
func TestRouterRejectsCrossShardBatch(t *testing.T) {
	r := NewRouter([]*Shard{nil, nil, nil, nil}, 0, nil)

	// Find two accounts the ring places on different shards.
	a := "acct-0"
	b := ""
	for i := 1; i < 1000; i++ {
		name := fmt.Sprintf("acct-%d", i)
		if r.ShardFor(name) != r.ShardFor(a) {
			b = name
			break
		}
	}
	if b == "" {
		t.Fatal("could not find accounts on distinct shards")
	}

	frame, err := core.EncodeMessage(&core.SubmitBatch{Txs: []core.Transaction{
		{ID: "b1", From: a, To: "sink", AmountCents: 1, Currency: "EUR"},
		{ID: "b2", From: b, To: "sink", AmountCents: 1, Currency: "EUR"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Handle(frame); !errors.Is(err, ErrCrossShard) {
		t.Fatalf("cross-shard batch returned %v, want ErrCrossShard", err)
	}
	// A cross-shard refusal must not look like a dead primary.
	if FailoverTrigger(fmt.Errorf("wrapped: %w", ErrCrossShard)) {
		t.Fatal("ErrCrossShard must not trigger failover")
	}

	// A single-shard batch (same debit account) still routes normally.
	same, err := core.EncodeMessage(&core.SubmitBatch{Txs: []core.Transaction{
		{ID: "b1", From: a, To: "sink", AmountCents: 1, Currency: "EUR"},
		{ID: "b2", From: a, To: "sink2", AmountCents: 2, Currency: "EUR"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if idx, err := r.route(same); err != nil || idx != r.ShardFor(a) {
		t.Fatalf("single-shard batch routed to %d (err %v), want %d", idx, err, r.ShardFor(a))
	}
}

// ---------------------------------------------------------------------
// Pin tables
// ---------------------------------------------------------------------

// Abandoned pins must not accumulate without bound, the newest pins
// must survive eviction of older generations, and eviction must be
// deterministic (wholesale generation drops, no random iteration).
func TestPinTableBounded(t *testing.T) {
	pt := newPinTable[int](4)
	for i := 0; i < 100; i++ {
		pt.put(i, i%3)
	}
	if pt.size() > 8 {
		t.Fatalf("pin table holds %d entries, cap is 2×4", pt.size())
	}
	// The newest cap-worth of pins always survives.
	for i := 96; i < 100; i++ {
		if v, ok := pt.get(i); !ok || v != i%3 {
			t.Fatalf("recent pin %d lost (got %d, %v)", i, v, ok)
		}
	}
	// Ancient pins are gone.
	if _, ok := pt.get(0); ok {
		t.Fatal("pin 0 survived 100 inserts into a cap-4 table")
	}
	// Deletion removes from either generation.
	pt.put(200, 1)
	pt.del(200)
	if _, ok := pt.get(200); ok {
		t.Fatal("deleted pin still present")
	}
	// Re-pinning refreshes: the key moves to the current generation and
	// survives a full cap-worth of newer inserts.
	pt2 := newPinTable[int](4)
	pt2.put(300, 2)
	for i := 0; i < 3; i++ {
		pt2.put(400+i, 0)
	}
	pt2.put(300, 2) // refresh just before rotation
	for i := 0; i < 4; i++ {
		pt2.put(500+i, 0)
	}
	if _, ok := pt2.get(300); !ok {
		t.Fatal("refreshed pin evicted with its old generation")
	}
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

func TestManifestRoundTrip(t *testing.T) {
	b := store.NewMemBackend()

	if _, ok, err := readManifest(b); err != nil || ok {
		t.Fatalf("virgin backend: ok=%v err=%v, want absent", ok, err)
	}

	m := shardManifest{Epoch: 7, Active: "follower-2", Followers: []int{0, 3}, NextFollower: 4}
	if err := writeManifest(b, m); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, ok, err := readManifest(b)
	if err != nil || !ok {
		t.Fatalf("read: ok=%v err=%v", ok, err)
	}
	if got.Epoch != 7 || got.Active != "follower-2" || got.NextFollower != 4 ||
		len(got.Followers) != 2 || got.Followers[0] != 0 || got.Followers[1] != 3 {
		t.Fatalf("round trip mangled: %+v", got)
	}

	// Overwrite replaces the record completely.
	m.Epoch, m.Active, m.Followers = 8, "follower-3", nil
	if err := writeManifest(b, m); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	got, _, err = readManifest(b)
	if err != nil || got.Epoch != 8 || got.Active != "follower-3" || len(got.Followers) != 0 {
		t.Fatalf("rewrite mangled: %+v (err %v)", got, err)
	}
}

// A present-but-garbled manifest must fail loudly, never read as a
// fresh start — bootstrapping over state we cannot interpret is how
// lineages get clobbered.
func TestManifestRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{{}, {0x01}, []byte("not a manifest")} {
		if _, err := decodeManifest(data); err == nil {
			t.Errorf("decoded garbage manifest %q", data)
		}
	}
	b := store.NewMemBackend()
	f, err := b.Create(manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := readManifest(b); err == nil {
		t.Fatal("read a garbage manifest as valid")
	}
}
