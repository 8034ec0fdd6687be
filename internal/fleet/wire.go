package fleet

import (
	"fmt"

	"unitp/internal/cryptoutil"
	"unitp/internal/store"
)

// Replication wire format. Three frames flow over a shard's replication
// links, every one carrying the sender's epoch so a fenced primary is
// refused at the follower, not trusted at the router:
//
//	bootstrap: epoch | upTo | generation | history... | state | records...
//	append:    epoch | from | groups...
//	ack:       epoch | applied | status
//
// Offsets count committed WAL groups since the shard's birth — the
// logical replication stream position, independent of the snapshot
// rotations either side performs locally. A bootstrap carries one full
// store segment (the history log prefix the snapshot covers, the
// snapshot state, and that generation's WAL records) and
// declares the stream position it represents; appends then extend the
// stream. Followers apply appends idempotently by offset: a frame
// overlapping what they already hold is deduplicated, a frame that
// would leave a hole is refused with ackGap. That makes the replication
// channel itself exactly-once over an at-least-once transport — the
// same discipline the client protocol uses, one layer down.

// Replication frame tags.
const (
	frameBootstrap uint8 = iota + 1
	frameAppend
	frameAck
)

// Ack statuses.
const (
	// ackOK: the frame was applied; Applied is the follower's new
	// stream offset.
	ackOK uint8 = iota + 1

	// ackFenced: the frame's epoch is older than one the follower has
	// already served; the sender is a zombie and must stop.
	ackFenced

	// ackGap: the frame's From offset is ahead of the follower's log;
	// applying it would leave a hole. The sender must re-ship from
	// Applied (or bootstrap).
	ackGap
)

// bootstrapFrame carries one full store segment to (re)seed a follower.
type bootstrapFrame struct {
	Epoch   uint64
	UpTo    uint64 // stream offset the segment represents
	Gen     uint64 // sender's generation, for diagnostics
	History [][]byte
	State   []byte
	Records [][]byte
}

// encodeSegmentBootstrap encodes the bootstrap frame that seeds a
// follower with seg at stream offset upTo.
func encodeSegmentBootstrap(epoch, upTo uint64, seg store.Segment) []byte {
	return encodeBootstrap(bootstrapFrame{
		Epoch: epoch, UpTo: upTo, Gen: seg.Generation,
		History: seg.History, State: seg.State, Records: seg.Records,
	})
}

// appendFrame extends the follower's log with committed groups.
type appendFrame struct {
	Epoch  uint64
	From   uint64 // stream offset of Groups[0]
	Groups [][]byte
}

// ackFrame is the follower's answer to either frame.
type ackFrame struct {
	Epoch   uint64
	Applied uint64
	Status  uint8
}

func encodeBootstrap(f bootstrapFrame) []byte {
	b := cryptoutil.NewBuffer(256 + len(f.State))
	b.PutUint8(frameBootstrap)
	b.PutUint64(f.Epoch)
	b.PutUint64(f.UpTo)
	b.PutUint64(f.Gen)
	putRecords(b, f.History)
	b.PutBytes(f.State)
	putRecords(b, f.Records)
	return b.Bytes()
}

// putRecords writes a count-prefixed list of byte strings.
func putRecords(b *cryptoutil.Buffer, recs [][]byte) {
	b.PutUint32(uint32(len(recs)))
	for _, rec := range recs {
		b.PutBytes(rec)
	}
}

// readRecords reads a list written by putRecords.
func readRecords(r *cryptoutil.Reader) [][]byte {
	var recs [][]byte
	for i, n := 0, int(r.Uint32()); i < n && r.Err() == nil; i++ {
		recs = append(recs, r.Bytes())
	}
	return recs
}

func encodeAppend(f appendFrame) []byte {
	b := cryptoutil.NewBuffer(256)
	b.PutUint8(frameAppend)
	b.PutUint64(f.Epoch)
	b.PutUint64(f.From)
	putRecords(b, f.Groups)
	return b.Bytes()
}

func encodeAck(f ackFrame) []byte {
	b := cryptoutil.NewBuffer(32)
	b.PutUint8(frameAck)
	b.PutUint64(f.Epoch)
	b.PutUint64(f.Applied)
	b.PutUint8(f.Status)
	return b.Bytes()
}

// decodeRepFrame decodes any replication frame, returning exactly one
// of the three pointers.
func decodeRepFrame(data []byte) (*bootstrapFrame, *appendFrame, *ackFrame, error) {
	r := cryptoutil.NewReader(data)
	tag := r.Uint8()
	switch tag {
	case frameBootstrap:
		f := &bootstrapFrame{Epoch: r.Uint64(), UpTo: r.Uint64(), Gen: r.Uint64()}
		f.History = readRecords(r)
		f.State = r.Bytes()
		f.Records = readRecords(r)
		if err := r.ExpectEOF(); err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: bootstrap frame: %w", err)
		}
		return f, nil, nil, nil
	case frameAppend:
		f := &appendFrame{Epoch: r.Uint64(), From: r.Uint64()}
		f.Groups = readRecords(r)
		if err := r.ExpectEOF(); err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: append frame: %w", err)
		}
		return nil, f, nil, nil
	case frameAck:
		f := &ackFrame{Epoch: r.Uint64(), Applied: r.Uint64(), Status: r.Uint8()}
		if err := r.ExpectEOF(); err != nil {
			return nil, nil, nil, fmt.Errorf("fleet: ack frame: %w", err)
		}
		return nil, nil, f, nil
	default:
		return nil, nil, nil, fmt.Errorf("fleet: unknown replication frame tag %d", tag)
	}
}
