package iptree

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// gobClone deep-copies a state struct through a gob round trip: exported
// states alias the live index's internal arrays, so corruption tests must
// mutate a private copy.
func gobClone[T any](t *testing.T, in *T) *T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatalf("clone encode: %v", err)
	}
	out := new(T)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("clone decode: %v", err)
	}
	return out
}

func snapshotTestVenue(t *testing.T) *model.Venue {
	t.Helper()
	return venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "snapshot", Floors: 2, RoomsPerHallway: 12, Seed: 17,
	})
}

// TestExportRestoreTree checks the low-level hook round trip: RestoreTree
// over an exported state reproduces the derived lookup tables exactly and
// answers identical queries.
func TestExportRestoreTree(t *testing.T) {
	v := snapshotTestVenue(t)
	built := MustBuildIPTree(v, Options{})
	restored, err := RestoreTree(v, built.ExportState())
	if err != nil {
		t.Fatalf("RestoreTree: %v", err)
	}
	if restored.NumNodes() != built.NumNodes() || restored.Root() != built.Root() {
		t.Fatalf("tree shape changed: %d nodes root %d, want %d nodes root %d",
			restored.NumNodes(), restored.Root(), built.NumNodes(), built.Root())
	}
	// Derived tables must be rebuilt identically, not approximately: the
	// query algorithms iterate them in order.
	if !reflect.DeepEqual(restored.leafOfPartition, built.leafOfPartition) {
		t.Fatal("leafOfPartition differs after restore")
	}
	if !reflect.DeepEqual(restored.doorsOfLeaf, built.doorsOfLeaf) {
		t.Fatal("doorsOfLeaf differs after restore")
	}
	if !reflect.DeepEqual(restored.pk.leavesOfDoor, built.pk.leavesOfDoor) {
		t.Fatal("leavesOfDoor differs after restore")
	}
	if !reflect.DeepEqual(restored.isLeafAccessDoor, built.isLeafAccessDoor) {
		t.Fatal("isLeafAccessDoor differs after restore")
	}
	if !reflect.DeepEqual(restored.pk.accessNodesOfDoor, built.pk.accessNodesOfDoor) {
		t.Fatal("accessNodesOfDoor differs after restore")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := v.RandomLocation(rng), v.RandomLocation(rng)
		if got, want := restored.Distance(a, b), built.Distance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestEncodeDecodeVIP checks the Snapshotter payload round trip for the
// VIP-Tree, including the materialised entries.
func TestEncodeDecodeVIP(t *testing.T) {
	v := snapshotTestVenue(t)
	built := NewVIPTree(MustBuildIPTree(v, Options{}))
	var buf bytes.Buffer
	if err := built.EncodeSnapshot(&buf); err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	restored, err := DecodeVIPSnapshot(&buf, v)
	if err != nil {
		t.Fatalf("DecodeVIPSnapshot: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a, b := v.RandomLocation(rng), v.RandomLocation(rng)
		if got, want := restored.Distance(a, b), built.Distance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %v, want %v", a, b, got, want)
		}
		gd, gp := restored.Path(a, b)
		wd, wp := built.Path(a, b)
		if gd != wd || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("Path(%v, %v) = (%v, %v), want (%v, %v)", a, b, gd, gp, wd, wp)
		}
	}
}

// TestSnapshotKinds pins the payload kind strings: changing one silently
// would orphan every existing snapshot file.
func TestSnapshotKinds(t *testing.T) {
	v := snapshotTestVenue(t)
	ip := MustBuildIPTree(v, Options{})
	vip := NewVIPTree(MustBuildIPTree(v, Options{}))
	if got := ip.SnapshotKind(); got != "iptree/v1" {
		t.Errorf("IP-Tree SnapshotKind() = %q, want iptree/v1", got)
	}
	if got := vip.SnapshotKind(); got != "viptree/v1" {
		t.Errorf("VIP-Tree SnapshotKind() = %q, want viptree/v1", got)
	}
}

// TestRestoreRejectsCorruptState drives RestoreTree/RestoreVIPTree with
// states mutated in targeted ways; every mutation must be rejected with a
// descriptive error, never a panic or a silently wrong tree.
func TestRestoreRejectsCorruptState(t *testing.T) {
	v := snapshotTestVenue(t)
	base := MustBuildIPTree(v, Options{}).ExportState()

	cases := []struct {
		name    string
		mutate  func(st *TreeState)
		errPart string
	}{
		{"no nodes", func(st *TreeState) { st.Nodes = nil }, "no nodes"},
		{"root out of range", func(st *TreeState) { st.Root = NodeID(len(st.Nodes)) }, "root"},
		{"negative root", func(st *TreeState) { st.Root = -1 }, "root"},
		{"parent out of range", func(st *TreeState) { st.Nodes[0].Parent = NodeID(len(st.Nodes) + 5) }, "parent"},
		{"child out of range", func(st *TreeState) {
			st.Nodes[len(st.Nodes)-1].Children = append(st.Nodes[len(st.Nodes)-1].Children, NodeID(len(st.Nodes)))
		}, "child"},
		{"bad level", func(st *TreeState) { st.Nodes[0].Level = 0 }, "level"},
		{"root with parent", func(st *TreeState) { st.Nodes[st.Root].Parent = 0 }, "root"},
		{"parent cycle", func(st *TreeState) {
			// A self-parent is the tightest cycle: every climb through the
			// node would loop forever without the level validation.
			st.Nodes[0].Parent = 0
		}, "level"},
		{"detached subtree", func(st *TreeState) {
			// Orphan a non-root leaf: its climb no longer reaches the root.
			for i := range st.Nodes {
				if NodeID(i) != st.Root && len(st.Nodes[i].Children) == 0 {
					st.Nodes[i].Parent = -1
					return
				}
			}
		}, "reach the root"},
		{"partition out of range", func(st *TreeState) {
			for i := range st.Nodes {
				if len(st.Nodes[i].Partitions) > 0 {
					st.Nodes[i].Partitions[0] = model.PartitionID(v.NumPartitions())
					return
				}
			}
		}, "partition"},
		{"access door out of range", func(st *TreeState) { st.Nodes[0].AccessDoors[0] = model.DoorID(v.NumDoors()) }, "door"},
		{"missing matrix", func(st *TreeState) { st.Nodes[0].Matrix = nil }, "matrix"},
		{"matrix shape mismatch", func(st *TreeState) { st.Nodes[0].Matrix.Dist = st.Nodes[0].Matrix.Dist[:1] }, "matrix"},
		{"matrix next hop out of range", func(st *TreeState) {
			st.Nodes[0].Matrix.Next = append([]model.DoorID(nil), st.Nodes[0].Matrix.Next...)
			st.Nodes[0].Matrix.Next[0] = model.DoorID(v.NumDoors())
		}, "next"},
		{"non-leaf matrix columns permuted", func(st *TreeState) {
			// The packed positional tables index non-leaf matrix columns by
			// row position, so a payload whose columns are not the row door
			// set must be rejected, not silently mis-answered.
			for i := range st.Nodes {
				n := &st.Nodes[i]
				if len(n.Children) == 0 || n.Matrix == nil || len(n.Matrix.Cols) < 2 {
					continue
				}
				cols := append([]model.DoorID(nil), n.Matrix.Cols...)
				cols[0], cols[1] = cols[1], cols[0]
				n.Matrix.Cols = cols
				return
			}
			t.Skip("venue produced no suitable non-leaf matrix")
		}, "columns differ from rows"},
		{"superior door count mismatch", func(st *TreeState) { st.SuperiorDoors = st.SuperiorDoors[:1] }, "superior"},
		// NoDoor is a valid value only in next-hop arrays; in a door set it
		// would index the per-door tables at -1.
		{"access door NoDoor", func(st *TreeState) {
			st.Nodes[firstLeaf(t, st, 1)].AccessDoors[0] = NoDoor
		}, "access doors: door -1"},
		{"matrix row NoDoor", func(st *TreeState) {
			st.Nodes[firstLeaf(t, st, 1)].Matrix.Rows[0] = NoDoor
		}, "matrix rows: door -1"},
		{"matrix column NoDoor", func(st *TreeState) {
			st.Nodes[firstLeaf(t, st, 1)].Matrix.Cols[0] = NoDoor
		}, "matrix cols: door -1"},
		{"superior door NoDoor", func(st *TreeState) {
			for p := range st.SuperiorDoors {
				if len(st.SuperiorDoors[p]) > 0 {
					st.SuperiorDoors[p][0] = NoDoor
					return
				}
			}
			t.Skip("venue produced no superior doors")
		}, "superior doors: door -1"},
		{"matrix rows unsorted", func(st *TreeState) {
			rows := st.Nodes[firstLeaf(t, st, 2)].Matrix.Rows
			rows[0], rows[1] = rows[1], rows[0]
		}, "not strictly ascending"},
		{"partition covered twice", func(st *TreeState) {
			// Duplicate the first leaf's partition into another leaf.
			var leaves []int
			for i := range st.Nodes {
				if len(st.Nodes[i].Children) == 0 {
					leaves = append(leaves, i)
				}
			}
			if len(leaves) < 2 {
				t.Skip("venue produced a single-leaf tree")
			}
			st.Nodes[leaves[1]].Partitions = append(st.Nodes[leaves[1]].Partitions, st.Nodes[leaves[0]].Partitions[0])
		}, "covered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := gobClone(t, base) // mutations must not leak across cases
			tc.mutate(st)
			if _, err := RestoreTree(v, st); err == nil {
				t.Fatal("RestoreTree accepted a corrupt state")
			} else if !strings.Contains(strings.ToLower(err.Error()), tc.errPart) {
				t.Fatalf("RestoreTree error %q does not mention %q", err, tc.errPart)
			}
		})
	}
}

// firstLeaf returns the first leaf with an access door and at least minRows
// matrix rows, skipping the test when the venue has none.
func firstLeaf(t *testing.T, st *TreeState, minRows int) int {
	t.Helper()
	for i := range st.Nodes {
		n := &st.Nodes[i]
		if len(n.Children) == 0 && len(n.AccessDoors) > 0 && n.Matrix != nil && len(n.Matrix.Rows) >= minRows {
			return i
		}
	}
	t.Skip("venue produced no suitable leaf")
	return -1
}

// TestRestoreVIPRejectsCorruptState checks the VIP-specific validation.
func TestRestoreVIPRejectsCorruptState(t *testing.T) {
	v := snapshotTestVenue(t)
	built := NewVIPTree(MustBuildIPTree(v, Options{}))
	base := built.ExportState()

	st := gobClone(t, base)
	st.Doors = st.Doors[:len(st.Doors)-1]
	if _, err := RestoreVIPTree(v, st); err == nil {
		t.Fatal("RestoreVIPTree accepted a door-count mismatch")
	}

	st = gobClone(t, base)
	st.Doors[0].Nodes = append(st.Doors[0].Nodes, NodeID(built.NumNodes()))
	st.Doors[0].Entries = append(st.Doors[0].Entries, nil)
	if _, err := RestoreVIPTree(v, st); err == nil {
		t.Fatal("RestoreVIPTree accepted an out-of-range VIP node")
	}

	st = gobClone(t, base)
	if len(st.Doors[0].Entries) > 0 && len(st.Doors[0].Entries[0]) > 0 {
		st.Doors[0].Entries[0] = st.Doors[0].Entries[0][:len(st.Doors[0].Entries[0])-1]
		if _, err := RestoreVIPTree(v, st); err == nil {
			t.Fatal("RestoreVIPTree accepted a misaligned entry set")
		}
	}
}

// TestRestoreObjectIndexRejectsCorruptState checks the object-index
// validation: bad leaves, out-of-range object IDs and misaligned lists.
func TestRestoreObjectIndexRejectsCorruptState(t *testing.T) {
	v := snapshotTestVenue(t)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(3))
	objects := make([]model.Location, 10)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	oi := tree.IndexObjects(objects)
	base := oi.ExportState()

	st := gobClone(t, base)
	st.Leaves[0].Leaf = NodeID(tree.NumNodes())
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted an out-of-range leaf")
	}

	st = gobClone(t, base)
	st.Leaves[0].Leaf = tree.Root()
	if tree.Node(tree.Root()).IsLeaf() {
		t.Skip("single-node tree")
	}
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted a non-leaf node")
	}

	st = gobClone(t, base)
	st.Leaves[0].ObjectIDs[0] = len(objects)
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted an out-of-range object ID")
	}

	st = gobClone(t, base)
	st.Leaves[0].AccessLists = st.Leaves[0].AccessLists[:len(st.Leaves[0].AccessLists)-1]
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted misaligned access lists")
	}

	st = gobClone(t, base)
	st.Leaves[0].AccessLists[0][0].ObjectID = len(objects) + 3
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted an out-of-range access-list object ID")
	}

	st = gobClone(t, base)
	st.Leaves[0].AccessLists[0][0].ObjectID = -1
	if _, err := RestoreObjectIndex(tree, st); err == nil {
		t.Fatal("RestoreObjectIndex accepted a negative access-list object ID")
	}
}

// TestMutatedObjectIndexRoundTrip exports an object index after a sequence
// of Insert/Delete/Move updates and verifies the restored copy answers
// bit-identical queries — including ID stability across deleted slots — and
// that a second export of the restored index reproduces the state exactly.
func TestMutatedObjectIndexRoundTrip(t *testing.T) {
	v := snapshotTestVenue(t)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(29))
	objects := make([]model.Location, 14)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	oi := tree.IndexObjects(objects)
	for op := 0; op < 120; op++ {
		switch rng.Intn(3) {
		case 0:
			if _, err := oi.Insert(v.RandomLocation(rng)); err != nil {
				t.Fatal(err)
			}
		case 1:
			// Deleting an already-deleted slot is fine to skip.
			if err := oi.Delete(rng.Intn(len(oi.Objects()))); err != nil && !strings.Contains(err.Error(), "no such object") {
				t.Fatal(err)
			}
		default:
			if err := oi.Move(rng.Intn(len(oi.Objects())), v.RandomLocation(rng)); err != nil && !strings.Contains(err.Error(), "no such object") {
				t.Fatal(err)
			}
		}
	}
	st := gobClone(t, oi.ExportState())
	restored, err := RestoreObjectIndex(tree, st)
	if err != nil {
		t.Fatalf("RestoreObjectIndex: %v", err)
	}
	if restored.NumObjects() != oi.NumObjects() {
		t.Fatalf("restored NumObjects = %d, want %d", restored.NumObjects(), oi.NumObjects())
	}
	for i := 0; i < 40; i++ {
		q := v.RandomLocation(rng)
		if got, want := restored.KNN(q, 6), oi.KNN(q, 6); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored KNN(%v) = %v, want %v", q, got, want)
		}
		if got, want := restored.Range(q, 150), oi.Range(q, 150); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored Range(%v) = %v, want %v", q, got, want)
		}
	}
	if again := restored.ExportState(); !reflect.DeepEqual(gobClone(t, again), st) {
		t.Fatal("re-exported state differs from the original export")
	}
	// The restored index keeps accepting updates, reusing freed slots.
	id, err := restored.Insert(v.RandomLocation(rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, alive := restored.Location(id); !alive {
		t.Fatal("object inserted into restored index is not alive")
	}
}

// TestSnapshotSeqStamp checks the update-log sequence stamp: exports carry
// the seq of the pinned epoch, restores resume the log exactly there, and
// old snapshots (no stamp → gob zero) keep restoring at seq 0.
func TestSnapshotSeqStamp(t *testing.T) {
	v := snapshotTestVenue(t)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(7))
	objs := make([]model.Location, 40)
	for i := range objs {
		objs[i] = v.RandomLocation(rng)
	}
	oi := tree.IndexObjects(objs)

	// A fresh build has applied no updates: the stamp is 0, exactly what
	// pre-stamp snapshots decode as.
	if got := oi.ExportState().Seq; got != 0 {
		t.Fatalf("fresh export stamped seq %d, want 0", got)
	}

	for i := 0; i < 25; i++ {
		if _, err := oi.Insert(v.RandomLocation(rng)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	st := gobClone(t, oi.ExportState())
	if st.Seq != 25 {
		t.Fatalf("export after 25 updates stamped seq %d, want 25", st.Seq)
	}

	restored, err := RestoreObjectIndex(tree, st)
	if err != nil {
		t.Fatalf("RestoreObjectIndex: %v", err)
	}
	if got := restored.Epoch(); got != 25 {
		t.Fatalf("restored epoch %d, want the stamp 25", got)
	}
	if got := restored.ChangeLog().HeadSeq(); got != 25 {
		t.Fatalf("restored log head %d, want 25", got)
	}
	// The next update continues the sequence rather than restarting it —
	// the property WAL replay relies on.
	if _, err := restored.Insert(v.RandomLocation(rng)); err != nil {
		t.Fatalf("insert after restore: %v", err)
	}
	if got := restored.ChangeLog().HeadSeq(); got != 26 {
		t.Fatalf("post-restore update got seq %d, want 26", got)
	}

	// Old snapshot compatibility: a state with the zero stamp restores at
	// seq 0, the pre-stamp behaviour.
	st.Seq = 0
	legacy, err := RestoreObjectIndex(tree, st)
	if err != nil {
		t.Fatalf("RestoreObjectIndex (legacy): %v", err)
	}
	if legacy.Epoch() != 0 || legacy.ChangeLog().HeadSeq() != 0 {
		t.Fatalf("legacy restore at epoch %d / head %d, want 0/0", legacy.Epoch(), legacy.ChangeLog().HeadSeq())
	}
}
