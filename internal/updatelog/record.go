// Package updatelog provides the single-writer update log behind the
// mutable object layer. All Insert/Delete/Move mutations are funneled
// through one Log; a combining writer assigns monotonic sequence numbers,
// applies batches to a shadow copy of the index through the Applier
// interface, and publishes immutable epoch versions that readers access
// without locks. The log keeps no history: it hands each applied batch,
// in sequence order, to its one follower (the write-ahead log, when the
// index is durable) and forgets it.
package updatelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"viptree/internal/model"
)

// Op identifies the kind of mutation a Record carries.
type Op uint8

const (
	// OpInsert adds a new object; Record.Loc holds its location and
	// Record.ID the identifier the applier assigned to it.
	OpInsert Op = 1
	// OpDelete removes the object identified by Record.ID.
	OpDelete Op = 2
	// OpMove relocates Record.ID to Record.Loc.
	OpMove Op = 3
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpMove:
		return "move"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Record is one applied update. Seq numbers are assigned by the Log,
// start at 1, and are gap-free over applied updates: an operation that
// fails validation (e.g. deleting an unknown object) consumes no
// sequence number and is never passed to the follower.
type Record struct {
	Seq uint64
	Op  Op
	ID  int
	Loc model.Location
}

// Wire format (big-endian), used by AppendRecord/DecodeRecord:
//
//	op      uint8
//	seq     uint64
//	id      int64
//	loc     (insert/move only)
//	  partition int64
//	  floor     int32
//	  x, y      float64 (IEEE 754 bits)
//
// Delete records stop after id. The format is self-delimiting so
// records can be streamed back-to-back.
const (
	headerLen = 1 + 8 + 8
	locLen    = 8 + 4 + 8 + 8
)

// Typed decode errors. DecodeRecord never panics on malformed input.
var (
	// ErrShortRecord means the buffer ends before the record does.
	ErrShortRecord = errors.New("updatelog: short record")
	// ErrUnknownOp means the op byte is not a known Op.
	ErrUnknownOp = errors.New("updatelog: unknown op")
	// ErrCorruptRecord means a field holds an impossible value
	// (negative id, non-finite coordinate).
	ErrCorruptRecord = errors.New("updatelog: corrupt record")
)

// AppendRecord appends the wire encoding of r to buf and returns the
// extended slice.
func AppendRecord(buf []byte, r *Record) []byte {
	buf = append(buf, byte(r.Op))
	buf = binary.BigEndian.AppendUint64(buf, r.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(int64(r.ID)))
	if r.Op == OpInsert || r.Op == OpMove {
		buf = binary.BigEndian.AppendUint64(buf, uint64(int64(r.Loc.Partition)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.Loc.Point.Floor)))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Loc.Point.X))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Loc.Point.Y))
	}
	return buf
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. Malformed input yields a
// typed error (ErrShortRecord, ErrUnknownOp, ErrCorruptRecord) and
// never panics.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < headerLen {
		return Record{}, 0, ErrShortRecord
	}
	op := Op(buf[0])
	switch op {
	case OpInsert, OpDelete, OpMove:
	default:
		return Record{}, 0, fmt.Errorf("%w: %d", ErrUnknownOp, buf[0])
	}
	r := Record{Op: op}
	r.Seq = binary.BigEndian.Uint64(buf[1:9])
	id := int64(binary.BigEndian.Uint64(buf[9:17]))
	if id < 0 {
		return Record{}, 0, fmt.Errorf("%w: negative id %d", ErrCorruptRecord, id)
	}
	r.ID = int(id)
	n := headerLen
	if op == OpInsert || op == OpMove {
		if len(buf) < headerLen+locLen {
			return Record{}, 0, ErrShortRecord
		}
		part := int64(binary.BigEndian.Uint64(buf[17:25]))
		if part < 0 {
			return Record{}, 0, fmt.Errorf("%w: negative partition %d", ErrCorruptRecord, part)
		}
		r.Loc.Partition = model.PartitionID(part)
		r.Loc.Point.Floor = int(int32(binary.BigEndian.Uint32(buf[25:29])))
		r.Loc.Point.X = math.Float64frombits(binary.BigEndian.Uint64(buf[29:37]))
		r.Loc.Point.Y = math.Float64frombits(binary.BigEndian.Uint64(buf[37:45]))
		if math.IsNaN(r.Loc.Point.X) || math.IsInf(r.Loc.Point.X, 0) ||
			math.IsNaN(r.Loc.Point.Y) || math.IsInf(r.Loc.Point.Y, 0) {
			return Record{}, 0, fmt.Errorf("%w: non-finite coordinate", ErrCorruptRecord)
		}
		n += locLen
	}
	return r, n, nil
}
