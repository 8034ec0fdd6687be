package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// WAL frame layout (the history log uses the same framing): every
// record is framed as
//
//	u32 length | u32 CRC-32C(payload) | payload
//
// A reader accepts the longest valid prefix of frames and reports how it
// stopped: a clean end, a torn tail (partial header, payload shorter
// than the length prefix, or a CRC mismatch on the final bytes), or
// trailing garbage — all of which recovery treats the same way, by
// truncating to the valid prefix. Because a record only "exists" once
// its full frame is durable and its CRC matches, a torn write can lose
// the tail record but can never invent or alter one.

// Frame limits and errors.
var (
	// ErrRecordTooLarge is returned when appending a record above
	// MaxRecordSize.
	ErrRecordTooLarge = errors.New("store: WAL record exceeds maximum size")
)

// MaxRecordSize bounds one WAL record; a hostile or garbage length
// prefix beyond it is treated as a corrupt tail, not an allocation.
const MaxRecordSize = 4 << 20

// walFrameOverhead is the per-record framing cost in bytes.
const walFrameOverhead = 8

// castagnoli is the CRC-32C table (the checksum used by most production
// log formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordSize {
		return nil, ErrRecordTooLarge
	}
	var hdr [walFrameOverhead]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// walScan is the result of scanning a WAL file's bytes.
type walScan struct {
	// records are the valid records, in append order.
	records [][]byte

	// validBytes is the length of the valid frame prefix.
	validBytes int

	// truncatedBytes counts bytes past the valid prefix (torn tail or
	// trailing garbage) that recovery discards.
	truncatedBytes int
}

// scanWAL walks data frame by frame, collecting the longest valid
// prefix. It never fails: damage is expressed as truncation.
func scanWAL(data []byte) walScan {
	s := walScan{}
	off := 0
	for {
		if len(data)-off < walFrameOverhead {
			break // clean end or partial header
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > MaxRecordSize || len(data)-off-walFrameOverhead < n {
			break // garbage length or torn payload
		}
		payload := data[off+walFrameOverhead : off+walFrameOverhead+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // corrupt record: cut here
		}
		rec := make([]byte, n)
		copy(rec, payload)
		s.records = append(s.records, rec)
		off += walFrameOverhead + n
	}
	s.validBytes = off
	s.truncatedBytes = len(data) - off
	return s
}

// Snapshot envelope: u32 magic | u8 version | u64 generation |
// u64 history generation | u64 history length | u32 length | payload |
// u32 CRC-32C(everything before the CRC).
// A snapshot is either wholly valid or ignored; there is no partial
// acceptance, because the atomic temp-write/fsync/rename protocol means
// a visible *.snap file should always be complete — the CRC catches the
// cases where it is not (bit rot, injected garbage). The history fields
// name the history file the snapshot builds on and the length of its
// prefix that was synced before the snapshot was renamed into place;
// generation 0 means no history has been written.

const (
	snapshotMagic   = 0x55545053 // "UTPS"
	snapshotVersion = 2
	snapshotHdrLen  = 4 + 1 + 8 + 8 + 8 + 4
)

// ErrSnapshotVersion is returned by Open when the newest snapshot was
// written in an envelope version this build does not read. Open refuses
// rather than skipping it, because skipping would retire the data.
var ErrSnapshotVersion = errors.New("store: unsupported snapshot envelope version")

// histRef locates the durable history a snapshot covers: the prefix of
// length n of the history file of generation gen.
type histRef struct {
	gen uint64
	n   uint64
}

// encodeSnapshot wraps state in the snapshot envelope.
func encodeSnapshot(gen uint64, hist histRef, state []byte) []byte {
	buf := make([]byte, 0, snapshotHdrLen+len(state)+4)
	buf = binary.BigEndian.AppendUint32(buf, snapshotMagic)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, gen)
	buf = binary.BigEndian.AppendUint64(buf, hist.gen)
	buf = binary.BigEndian.AppendUint64(buf, hist.n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(state)))
	buf = append(buf, state...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeSnapshot validates an envelope and returns (generation,
// history reference, state). The CRC is checked before the version, so
// a damaged file is reported as damaged and only an intact envelope of
// another version yields ErrSnapshotVersion.
func decodeSnapshot(data []byte) (uint64, histRef, []byte, error) {
	if len(data) < 5+4 || binary.BigEndian.Uint32(data[0:4]) != snapshotMagic {
		return 0, histRef{}, nil, errors.New("store: snapshot magic mismatch")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(data[len(body):]) {
		return 0, histRef{}, nil, errors.New("store: snapshot CRC mismatch")
	}
	if data[4] != snapshotVersion {
		return 0, histRef{}, nil, fmt.Errorf("%w %d (this build reads %d)", ErrSnapshotVersion, data[4], snapshotVersion)
	}
	if len(body) < snapshotHdrLen {
		return 0, histRef{}, nil, fmt.Errorf("store: snapshot too short (%d bytes)", len(data))
	}
	gen := binary.BigEndian.Uint64(data[5:13])
	hist := histRef{gen: binary.BigEndian.Uint64(data[13:21]), n: binary.BigEndian.Uint64(data[21:29])}
	n := int(binary.BigEndian.Uint32(data[29:33]))
	if len(body) != snapshotHdrLen+n {
		return 0, histRef{}, nil, fmt.Errorf("store: snapshot length mismatch (%d payload, %d total)", n, len(data))
	}
	state := make([]byte, n)
	copy(state, body[snapshotHdrLen:])
	return gen, hist, state, nil
}
