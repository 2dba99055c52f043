package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc64"
	"io"
	"math/rand"
	"testing"

	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// The fuzz targets pin the promise the package doc makes: truncation and
// corruption surface as typed errors, never as panics or garbage indexes.
// FuzzReadSnapshot throws arbitrary bytes at the container framing;
// FuzzSnapshotPayload wraps arbitrary bytes in a VALID frame (magic,
// version, length, recomputed CRC) so the fuzzer reaches the gob decoder,
// the venue restore and the index/object-index validation paths that the
// checksum would otherwise shield.

// fuzzSeedSnapshot builds one real snapshot to seed the corpus: an IP-Tree
// with an embedded, mutated object index over the paper's running example
// (small enough to keep fuzz iterations fast, rich enough to exercise every
// section of the payload).
func fuzzSeedSnapshot(f *testing.F) []byte {
	f.Helper()
	v := venuegen.PaperExample()
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(3))
	objects := make([]model.Location, 10)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	oi := tree.IndexObjects(objects)
	if err := oi.Delete(4); err != nil {
		f.Fatalf("Delete: %v", err)
	}
	if _, err := oi.Insert(v.RandomLocation(rng)); err != nil {
		f.Fatalf("Insert: %v", err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, v, tree, oi); err != nil {
		f.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// stateTree is an IP-Tree whose snapshot payload is a given tree state
// instead of its own export: it writes the checksum-valid files a buggy or
// hostile writer could produce, which only restore's validation can catch.
type stateTree struct {
	*iptree.Tree
	st *iptree.TreeState
}

func (s stateTree) EncodeSnapshot(w io.Writer) error { return gob.NewEncoder(w).Encode(s.st) }

// craftedSnapshot writes a snapshot of the paper's running example whose
// exported tree state mutate altered.
func craftedSnapshot(tb testing.TB, mutate func(*iptree.TreeState)) []byte {
	tb.Helper()
	v := venuegen.PaperExample()
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	st := tree.ExportState()
	mutate(st)
	var buf bytes.Buffer
	if err := Write(&buf, v, stateTree{tree, st}, nil); err != nil {
		tb.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// firstLeaf returns the first leaf of st with an access door and at least
// two matrix rows.
func firstLeaf(st *iptree.TreeState) *iptree.NodeState {
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if len(n.Children) == 0 && len(n.AccessDoors) > 0 && n.Matrix != nil && len(n.Matrix.Rows) >= 2 {
			return n
		}
	}
	panic("paper example has no leaf with an access door and two matrix rows")
}

// FuzzReadSnapshot feeds arbitrary bytes to Read. Any outcome but a clean
// error or a successful load is a bug; a real snapshot from the corpus that
// stops round-tripping is one too.
func FuzzReadSnapshot(f *testing.F) {
	snap := fuzzSeedSnapshot(f)
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte("VIPTSNAP"))               // header cut short
	f.Add(snap[:headerSize])                // payload missing entirely
	f.Add(snap[:headerSize+7])              // payload truncated mid-gob
	f.Add(append([]byte(nil), snap[1:]...)) // magic shifted off

	corrupted := append([]byte(nil), snap...)
	corrupted[headerSize+3] ^= 0xFF // flip a payload byte under the checksum
	f.Add(corrupted)

	badVersion := append([]byte(nil), snap...)
	binary.BigEndian.PutUint32(badVersion[8:], 999)
	f.Add(badVersion)

	hugeLen := append([]byte(nil), snap[:headerSize]...)
	binary.BigEndian.PutUint64(hugeLen[12:], 1<<40) // over maxPayload
	f.Add(hugeLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			if s != nil {
				t.Fatalf("Read returned both a snapshot and error %v", err)
			}
			return
		}
		// A successful load must hand back a usable index: these calls must
		// not panic and the venue must be present.
		if s.Venue == nil || s.Tree == nil {
			t.Fatalf("Read succeeded but returned incomplete snapshot %+v", s)
		}
		q := model.Location{Partition: 0, Point: s.Venue.Partition(0).Bounds.Center()}
		s.Index().Distance(q, q)
		if s.Objects != nil {
			s.Objects.KNN(q, 1)
		}
	})
}

// FuzzSnapshotPayload frames the fuzzer's bytes as a checksum-valid payload
// before calling Read, so mutations reach the decoding layers behind the
// CRC: the gob body, the serial venue restore, the tree snapshot decoder
// and the object-index validation. The corpus seeds the three payload
// flavours (with objects, without, VIP) so the fuzzer mutates from valid
// gob streams instead of random noise.
func FuzzSnapshotPayload(f *testing.F) {
	snap := fuzzSeedSnapshot(f)
	f.Add(snap[headerSize:])

	v := venuegen.PaperExample()
	var noObj bytes.Buffer
	if err := Write(&noObj, v, iptree.MustBuildIPTree(v, iptree.Options{}), nil); err != nil {
		f.Fatalf("Write: %v", err)
	}
	f.Add(noObj.Bytes()[headerSize:])

	var vip bytes.Buffer
	if err := Write(&vip, v, iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{})), nil); err != nil {
		f.Fatalf("Write: %v", err)
	}
	f.Add(vip.Bytes()[headerSize:])

	// NoDoor among a leaf's access doors once made restore index a per-door
	// table at -1 and panic.
	crafted := craftedSnapshot(f, func(st *iptree.TreeState) { firstLeaf(st).AccessDoors[0] = iptree.NoDoor })
	f.Add(crafted[headerSize:])

	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > maxPayload {
			t.Skip("over the container's payload bound")
		}
		frame := make([]byte, headerSize+len(payload))
		copy(frame, magic)
		binary.BigEndian.PutUint32(frame[8:], FormatVersion)
		binary.BigEndian.PutUint64(frame[12:], uint64(len(payload)))
		binary.BigEndian.PutUint64(frame[20:], crc64.Checksum(payload, crcTable))
		copy(frame[headerSize:], payload)

		s, err := Read(bytes.NewReader(frame))
		if err != nil {
			// The frame is valid by construction, so framing errors must
			// not surface here — anything wrong lives in the payload.
			if errors.Is(err, ErrNotSnapshot) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) {
				t.Fatalf("checksum-valid frame reported a framing error: %v", err)
			}
			return
		}
		if s.Venue == nil || s.Tree == nil {
			t.Fatalf("Read succeeded but returned incomplete snapshot %+v", s)
		}
	})
}
