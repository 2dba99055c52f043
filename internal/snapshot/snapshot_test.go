package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// testVenues generates a spread of random venues: multi-floor buildings of
// varying shapes plus a multi-building campus, so the round-trip property is
// exercised over tree shapes with different heights, fanouts and outdoor
// edges.
func testVenues(t *testing.T) map[string]*model.Venue {
	t.Helper()
	venues := map[string]*model.Venue{}
	for i, cfg := range []venuegen.BuildingConfig{
		{Name: "b1", Floors: 1, RoomsPerHallway: 8, Seed: 11},
		{Name: "b2", Floors: 3, RoomsPerHallway: 12, Seed: 22},
		{Name: "b3", Floors: 2, RoomsPerHallway: 20, HallwaysPerFloor: 2, Seed: 33},
	} {
		v, err := venuegen.Building(cfg)
		if err != nil {
			t.Fatalf("building %d: %v", i, err)
		}
		venues[cfg.Name] = v
	}
	campus, err := venuegen.Campus(venuegen.CampusConfig{
		Name:      "campus",
		Buildings: 3,
		Building:  venuegen.BuildingConfig{Floors: 2, RoomsPerHallway: 8},
		Jitter:    true,
		Seed:      44,
	})
	if err != nil {
		t.Fatalf("campus: %v", err)
	}
	venues["campus"] = campus
	return venues
}

// roundTrip writes the index (and optional object index) to an in-memory
// snapshot and reads it back.
func roundTrip(t *testing.T, v *model.Venue, ix index.Snapshotter, oi *iptree.ObjectIndex) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, v, ix, oi); err != nil {
		t.Fatalf("Write: %v", err)
	}
	s, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return s
}

// TestRoundTripIdenticalAnswers is the acceptance property: a loaded index
// must answer bit-identical Distance, Path, KNN and Range queries to the
// freshly built one, over random venues and random workloads. Distances are
// compared with ==, paths and result lists with deep equality — no epsilon.
func TestRoundTripIdenticalAnswers(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			objects := make([]model.Location, 25)
			for i := range objects {
				objects[i] = v.RandomLocation(rng)
			}

			ip := iptree.MustBuildIPTree(v, iptree.Options{})
			vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))

			for _, tc := range []struct {
				kind  string
				built index.ObjectIndexer
				snap  index.Snapshotter
			}{
				{"ip", ip, ip},
				{"vip", vip, vip},
			} {
				t.Run(tc.kind, func(t *testing.T) {
					builtOI := tc.built.NewObjectQuerier(objects)
					s := roundTrip(t, v, tc.snap, nil)
					if s.Venue.NumDoors() != v.NumDoors() || s.Venue.NumPartitions() != v.NumPartitions() {
						t.Fatalf("venue shape changed: %d/%d doors, %d/%d partitions",
							s.Venue.NumDoors(), v.NumDoors(), s.Venue.NumPartitions(), v.NumPartitions())
					}
					loaded := s.Index()
					if loaded.Name() != tc.built.Name() {
						t.Fatalf("Name() = %q, want %q", loaded.Name(), tc.built.Name())
					}
					// Query locations must reference the loaded venue's
					// partitions; partition IDs and geometry are identical,
					// so locations transfer verbatim.
					loadedOI := loaded.NewObjectQuerier(objects)
					for i := 0; i < 200; i++ {
						s1 := v.RandomLocation(rng)
						s2 := v.RandomLocation(rng)
						if got, want := loaded.Distance(s1, s2), tc.built.Distance(s1, s2); got != want {
							t.Fatalf("Distance(%v, %v) = %v, built index says %v", s1, s2, got, want)
						}
						gd, gp := loaded.Path(s1, s2)
						wd, wp := tc.built.Path(s1, s2)
						if gd != wd || !reflect.DeepEqual(gp, wp) {
							t.Fatalf("Path(%v, %v) = (%v, %v), built index says (%v, %v)", s1, s2, gd, gp, wd, wp)
						}
					}
					for i := 0; i < 50; i++ {
						q := v.RandomLocation(rng)
						if got, want := loadedOI.KNN(q, 5), builtOI.KNN(q, 5); !reflect.DeepEqual(got, want) {
							t.Fatalf("KNN(%v, 5) = %v, built index says %v", q, got, want)
						}
						if got, want := loadedOI.Range(q, 80), builtOI.Range(q, 80); !reflect.DeepEqual(got, want) {
							t.Fatalf("Range(%v, 80) = %v, built index says %v", q, got, want)
						}
					}
				})
			}
		})
	}
}

// TestRoundTripEmbeddedObjects checks that an object index embedded in the
// snapshot survives the round trip and answers identical object queries.
func TestRoundTripEmbeddedObjects(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "objects", Floors: 2, RoomsPerHallway: 12, Seed: 5,
	})
	rng := rand.New(rand.NewSource(9))
	objects := make([]model.Location, 30)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))
	oi := vip.IndexObjects(objects)

	s := roundTrip(t, v, vip, oi)
	if s.Objects == nil {
		t.Fatal("snapshot lost the embedded object index")
	}
	if s.Objects.Name() != oi.Name() {
		t.Fatalf("object index name %q, want %q", s.Objects.Name(), oi.Name())
	}
	if !reflect.DeepEqual(s.Objects.Objects(), objects) {
		t.Fatal("embedded object locations changed in the round trip")
	}
	for i := 0; i < 100; i++ {
		q := v.RandomLocation(rng)
		if got, want := s.Objects.KNN(q, 7), oi.KNN(q, 7); !reflect.DeepEqual(got, want) {
			t.Fatalf("KNN(%v, 7) = %v, built index says %v", q, got, want)
		}
		if got, want := s.Objects.Range(q, 120), oi.Range(q, 120); !reflect.DeepEqual(got, want) {
			t.Fatalf("Range(%v, 120) = %v, built index says %v", q, got, want)
		}
	}
}

// TestRoundTripPreservesOptions checks that non-default construction options
// survive the round trip (they change query behaviour, so dropping them
// would silently produce a different index).
func TestRoundTripPreservesOptions(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "opts", Floors: 2, RoomsPerHallway: 10, Seed: 6,
	})
	built := iptree.MustBuildIPTree(v, iptree.Options{MinDegree: 4, DisableSuperiorDoors: true})
	s := roundTrip(t, v, built, nil)
	st := s.Tree.ExportState()
	if st.MinDegree != 4 || !st.DisableSuperiorDoors || st.NaiveMerge {
		t.Fatalf("options not preserved: %+v", st)
	}
}

// writeValid returns a valid in-memory snapshot used by the corruption tests.
func writeValid(t *testing.T) []byte {
	t.Helper()
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "corrupt", Floors: 1, RoomsPerHallway: 8, Seed: 2,
	})
	vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))
	var buf bytes.Buffer
	if err := Write(&buf, v, vip, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// TestTruncatedFile checks that every prefix-truncation of a snapshot is
// rejected with a typed error instead of yielding a broken index.
func TestTruncatedFile(t *testing.T) {
	data := writeValid(t)
	for _, cut := range []int{0, 4, len(magic), headerSize - 1, headerSize, headerSize + 1, len(data) / 2, len(data) - 1} {
		_, err := Read(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("Read(truncated at %d) = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestBadMagic checks that non-snapshot files are rejected up front.
func TestBadMagic(t *testing.T) {
	data := writeValid(t)
	data[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrNotSnapshot) {
		t.Fatalf("Read(bad magic) = %v, want ErrNotSnapshot", err)
	}
}

// TestWrongVersion checks that a future container version is rejected with a
// VersionError carrying both versions.
func TestWrongVersion(t *testing.T) {
	data := writeValid(t)
	binary.BigEndian.PutUint32(data[8:], FormatVersion+1)
	_, err := Read(bytes.NewReader(data))
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Read(wrong version) = %v, want *VersionError", err)
	}
	if ve.Got != FormatVersion+1 || ve.Want != FormatVersion {
		t.Fatalf("VersionError = %+v, want Got=%d Want=%d", ve, FormatVersion+1, FormatVersion)
	}
}

// TestCorruptPayload flips single bytes across the payload and checks that
// the checksum rejects every one of them before any decoding happens.
func TestCorruptPayload(t *testing.T) {
	data := writeValid(t)
	for _, off := range []int{headerSize, headerSize + 10, (headerSize + len(data)) / 2, len(data) - 1} {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x01
		if _, err := Read(bytes.NewReader(mutated)); !errors.Is(err, ErrChecksum) {
			t.Errorf("Read(corrupt byte at %d) = %v, want ErrChecksum", off, err)
		}
	}
}

// TestCorruptLengthField checks that an absurd declared payload length is
// rejected without attempting the allocation.
func TestCorruptLengthField(t *testing.T) {
	data := writeValid(t)
	binary.BigEndian.PutUint64(data[12:], maxPayload+1)
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Read(huge length) = %v, want ErrChecksum", err)
	}
}

// TestUnknownKind checks that a payload with an unrecognised index kind is
// rejected with an UnknownKindError (this is how schema evolution surfaces
// to old binaries).
func TestUnknownKind(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "kind", Floors: 1, RoomsPerHallway: 8, Seed: 3,
	})
	vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))
	var buf bytes.Buffer
	if err := Write(&buf, v, kindOverride{vip, "viptree/v999"}, nil); err != nil {
		t.Fatalf("Write: %v", err)
	}
	_, err := Read(bytes.NewReader(buf.Bytes()))
	var ke *UnknownKindError
	if !errors.As(err, &ke) {
		t.Fatalf("Read(unknown kind) = %v, want *UnknownKindError", err)
	}
	if ke.Kind != "viptree/v999" {
		t.Fatalf("UnknownKindError.Kind = %q", ke.Kind)
	}
}

// kindOverride wraps a Snapshotter, overriding its kind string.
type kindOverride struct {
	index.Snapshotter
	kind string
}

func (k kindOverride) SnapshotKind() string { return k.kind }

// TestReadRejectsCraftedDoorSets: checksum-valid snapshots whose tree state
// carries NoDoor in a door set, or matrix rows out of order, load as errors
// — never as a panic or a tree that answers from the wrong cells.
func TestReadRejectsCraftedDoorSets(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *iptree.TreeState)
	}{
		{"access door NoDoor", func(st *iptree.TreeState) { firstLeaf(st).AccessDoors[0] = iptree.NoDoor }},
		{"matrix row NoDoor", func(st *iptree.TreeState) { firstLeaf(st).Matrix.Rows[0] = iptree.NoDoor }},
		{"matrix column NoDoor", func(st *iptree.TreeState) { firstLeaf(st).Matrix.Cols[0] = iptree.NoDoor }},
		{"superior door NoDoor", func(st *iptree.TreeState) {
			for p := range st.SuperiorDoors {
				if len(st.SuperiorDoors[p]) > 0 {
					st.SuperiorDoors[p][0] = iptree.NoDoor
					return
				}
			}
			t.Fatal("paper example has no superior doors")
		}},
		{"matrix rows unsorted", func(st *iptree.TreeState) {
			rows := firstLeaf(st).Matrix.Rows
			rows[0], rows[1] = rows[1], rows[0]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Read(bytes.NewReader(craftedSnapshot(t, tc.mutate)))
			if err == nil || s != nil {
				t.Fatalf("Read = (%v, %v), want a restore error", s, err)
			}
		})
	}
}

// TestVenueMismatch checks that writing an index with a venue it was not
// built over is rejected.
func TestVenueMismatch(t *testing.T) {
	v1 := venuegen.MustBuilding(venuegen.BuildingConfig{Name: "v1", Floors: 1, RoomsPerHallway: 8, Seed: 1})
	v2 := venuegen.MustBuilding(venuegen.BuildingConfig{Name: "v2", Floors: 1, RoomsPerHallway: 8, Seed: 1})
	tree := iptree.MustBuildIPTree(v1, iptree.Options{})
	var buf bytes.Buffer
	if err := Write(&buf, v2, tree, nil); err == nil {
		t.Fatal("Write accepted an index built over a different venue")
	}
}

// TestSaveLoadFile exercises the file-based helpers end to end.
func TestSaveLoadFile(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "file", Floors: 2, RoomsPerHallway: 10, Seed: 8,
	})
	vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))
	path := t.TempDir() + "/venue.snap"
	if err := Save(path, v, vip, nil); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s.VIP == nil {
		t.Fatal("loaded snapshot has no VIP-Tree")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		a, b := v.RandomLocation(rng), v.RandomLocation(rng)
		if got, want := s.VIP.Distance(a, b), vip.Distance(a, b); got != want {
			t.Fatalf("Distance(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}
