package venuegen

import (
	"fmt"
	"strings"

	"viptree/internal/geom"
	"viptree/internal/model"
)

// Scale selects how large the preset venues are. The paper's full-size data
// sets (Table 2) reach 83,000 doors and 13.4 million D2D edges; building the
// full Clayton campus takes noticeable time and memory, so the benchmarks use
// the tiny and small scales while the commands' -scale flag reaches all three.
type Scale int

// Scales supported by the presets.
const (
	// ScaleTiny is for unit tests: venues with tens of rooms.
	ScaleTiny Scale = iota
	// ScaleSmall keeps benchmark venues in the hundreds-of-rooms range.
	ScaleSmall
	// ScaleFull matches the paper's Table 2 statistics.
	ScaleFull
)

// ParseScale parses a scale name: tiny, small or full.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("venuegen: unknown scale %q (want tiny, small or full)", name)
}

// Names lists the paper's six evaluation venues in the order of Table 2.
var Names = []string{"MC", "MC-2", "Men", "Men-2", "CL", "CL-2"}

// Named builds the paper venue with the given Table 2 name (one of Names) at
// scale s. A "-2" venue is two stacked copies of its base venue.
func Named(name string, s Scale) (*model.Venue, error) {
	switch name {
	case "MC":
		return MelbourneCentral(s), nil
	case "MC-2":
		return Replicate(MelbourneCentral(s), 2, 0)
	case "Men":
		return Menzies(s), nil
	case "Men-2":
		return Replicate(Menzies(s), 2, 0)
	case "CL":
		return Clayton(s), nil
	case "CL-2":
		return Replicate(Clayton(s), 2, 0)
	}
	return nil, fmt.Errorf("venuegen: unknown venue %q (want %s)", name, strings.Join(Names, ", "))
}

// MelbourneCentral returns a shopping-centre-like venue (data set "MC"):
// few levels, wide atrium hallways with many shops attached. At ScaleFull it
// targets ~297 rooms, ~299 doors over 7 levels with ~8,500 D2D edges.
func MelbourneCentral(s Scale) *model.Venue {
	cfg := BuildingConfig{
		Name:               "MC",
		Floors:             7,
		HallwaysPerFloor:   1,
		RoomsPerHallway:    42,
		DoubleDoorFraction: 0,
		Staircases:         1,
		Lifts:              1,
		Entrances:          2,
		RoomWidth:          8,
		RoomDepth:          10,
		HallwayWidth:       6,
		Seed:               101,
	}
	switch s {
	case ScaleTiny:
		cfg.Floors, cfg.RoomsPerHallway = 2, 8
	case ScaleSmall:
		cfg.Floors, cfg.RoomsPerHallway = 4, 20
	}
	return MustBuilding(cfg)
}

// Menzies returns an office-building-like venue (data set "Men"): 14 levels
// of offices along long hallways. At ScaleFull it targets ~1,306 rooms,
// ~1,368 doors and ~56,000 D2D edges.
func Menzies(s Scale) *model.Venue {
	cfg := BuildingConfig{
		Name:               "Men",
		Floors:             14,
		HallwaysPerFloor:   1,
		RoomsPerHallway:    93,
		DoubleDoorFraction: 0.02,
		Staircases:         2,
		Lifts:              2,
		Entrances:          2,
		RoomWidth:          4,
		RoomDepth:          6,
		HallwayWidth:       3,
		Seed:               202,
	}
	switch s {
	case ScaleTiny:
		cfg.Floors, cfg.RoomsPerHallway, cfg.Staircases, cfg.Lifts = 3, 10, 1, 0
	case ScaleSmall:
		cfg.Floors, cfg.RoomsPerHallway = 6, 40
	}
	return MustBuilding(cfg)
}

// Clayton returns a campus-like venue (data set "CL"): many buildings with
// very large hallway fan-out, connected by outdoor paths. At ScaleFull it
// targets ~41,000 rooms, ~41,000 doors and several million D2D edges with a
// maximum out-degree in the hundreds.
func Clayton(s Scale) *model.Venue {
	cfg := CampusConfig{
		Name:      "CL",
		Buildings: 71,
		Building: BuildingConfig{
			Floors:             2,
			HallwaysPerFloor:   1,
			RoomsPerHallway:    290,
			DoubleDoorFraction: 0.01,
			Staircases:         2,
			Lifts:              1,
			Entrances:          2,
			RoomWidth:          4,
			RoomDepth:          6,
			HallwayWidth:       4,
		},
		Jitter:      true,
		GridColumns: 9,
		Seed:        303,
	}
	switch s {
	case ScaleTiny:
		cfg.Buildings = 3
		cfg.Building.RoomsPerHallway = 12
		cfg.Building.Staircases = 1
		cfg.Building.Lifts = 0
	case ScaleSmall:
		cfg.Buildings = 8
		cfg.Building.RoomsPerHallway = 60
	}
	return MustCampus(cfg)
}

// PaperExample returns a small hand-crafted venue in the spirit of Fig. 1 of
// the paper: 17 partitions (four hallways with rooms attached) and ~20 doors
// on a single floor. It is used in unit tests, documentation and the
// quickstart example.
func PaperExample() *model.Venue {
	b := model.NewBuilder("paper-example")
	// Four hallway clusters arranged left to right, connected in a chain.
	//
	//	[P1 cluster] -- [P5 cluster] -- [P12 cluster] -- [P17 cluster]
	//
	// Cluster 1: hallway P1 with rooms P2, P3, P4.
	h1 := b.AddPartition("P1", model.ClassHallway, geom.NewRect(0, 10, 30, 14, 0), 0)
	p2 := b.AddPartition("P2", model.ClassRoom, geom.NewRect(0, 14, 10, 20, 0), 0)
	p3 := b.AddPartition("P3", model.ClassRoom, geom.NewRect(10, 14, 20, 20, 0), 0)
	p4 := b.AddPartition("P4", model.ClassRoom, geom.NewRect(20, 14, 30, 20, 0), 0)
	b.AddDoor("d1", geom.Point{X: 0, Y: 12, Floor: 0}, h1, model.NoPartition) // exterior exit
	b.AddDoor("d2", geom.Point{X: 5, Y: 14, Floor: 0}, p2, h1)
	b.AddDoor("d3", geom.Point{X: 12, Y: 14, Floor: 0}, p3, h1)
	b.AddDoor("d4", geom.Point{X: 18, Y: 14, Floor: 0}, p3, h1) // P3 has two doors to the hallway
	b.AddDoor("d5", geom.Point{X: 25, Y: 14, Floor: 0}, p4, h1)

	// Cluster 2: hallway P5 with rooms P6, P7.
	h5 := b.AddPartition("P5", model.ClassHallway, geom.NewRect(30, 10, 55, 14, 0), 0)
	p6 := b.AddPartition("P6", model.ClassRoom, geom.NewRect(30, 14, 42, 20, 0), 0)
	p7 := b.AddPartition("P7", model.ClassRoom, geom.NewRect(42, 14, 55, 20, 0), 0)
	b.AddDoor("d6", geom.Point{X: 30, Y: 12, Floor: 0}, h1, h5) // connects the two hallways
	b.AddDoor("d7", geom.Point{X: 36, Y: 14, Floor: 0}, p6, h5)
	b.AddDoor("d8", geom.Point{X: 48, Y: 14, Floor: 0}, p7, h5)
	b.AddDoor("d9", geom.Point{X: 41, Y: 10, Floor: 0}, p6, h5) // second door for P6
	b.AddDoor("d10", geom.Point{X: 42, Y: 14, Floor: 0}, p6, p7)

	// Cluster 3: hallway P12 with rooms P8..P11.
	h12 := b.AddPartition("P12", model.ClassHallway, geom.NewRect(55, 10, 85, 14, 0), 0)
	p8 := b.AddPartition("P8", model.ClassRoom, geom.NewRect(55, 14, 65, 20, 0), 0)
	p9 := b.AddPartition("P9", model.ClassRoom, geom.NewRect(65, 14, 75, 20, 0), 0)
	p10 := b.AddPartition("P10", model.ClassRoom, geom.NewRect(75, 14, 85, 20, 0), 0)
	p11 := b.AddPartition("P11", model.ClassRoom, geom.NewRect(55, 4, 70, 10, 0), 0)
	b.AddDoor("d11", geom.Point{X: 55, Y: 12, Floor: 0}, h5, h12) // connects clusters 2 and 3
	b.AddDoor("d12", geom.Point{X: 60, Y: 14, Floor: 0}, p8, h12)
	b.AddDoor("d13", geom.Point{X: 70, Y: 14, Floor: 0}, p9, h12)
	b.AddDoor("d14", geom.Point{X: 80, Y: 14, Floor: 0}, p10, h12)
	b.AddDoor("d15", geom.Point{X: 62, Y: 10, Floor: 0}, p11, h12)

	// Cluster 4: hallway P17 with rooms P13..P16.
	h17 := b.AddPartition("P17", model.ClassHallway, geom.NewRect(85, 10, 115, 14, 0), 0)
	p13 := b.AddPartition("P13", model.ClassRoom, geom.NewRect(85, 14, 95, 20, 0), 0)
	p14 := b.AddPartition("P14", model.ClassRoom, geom.NewRect(95, 14, 105, 20, 0), 0)
	p15 := b.AddPartition("P15", model.ClassRoom, geom.NewRect(105, 14, 115, 20, 0), 0)
	p16 := b.AddPartition("P16", model.ClassRoom, geom.NewRect(85, 4, 100, 10, 0), 0)
	b.AddDoor("d16", geom.Point{X: 85, Y: 12, Floor: 0}, h12, h17) // connects clusters 3 and 4
	b.AddDoor("d17", geom.Point{X: 90, Y: 14, Floor: 0}, p13, h17)
	b.AddDoor("d18", geom.Point{X: 100, Y: 14, Floor: 0}, p14, h17)
	b.AddDoor("d19", geom.Point{X: 110, Y: 14, Floor: 0}, p15, h17)
	b.AddDoor("d20", geom.Point{X: 92, Y: 10, Floor: 0}, p16, h17)

	return b.MustBuild()
}
