// Package model implements the indoor data model used throughout the
// repository: doors, indoor partitions (rooms, hallways, staircases, lifts),
// venues, and the door-to-door (D2D) graph derived from them (Section 1.2.2
// of the paper).
//
// A venue is built with a Builder, which validates the topology and
// materialises the D2D graph. All indexes in this repository (IP-Tree,
// VIP-Tree, the distance matrix, DistAw, G-tree, ROAD) consume a *Venue.
package model

import (
	"fmt"

	"viptree/internal/geom"
)

// DoorID identifies a door within a venue. Door IDs are dense indices into
// Venue.Doors and double as vertex identifiers in the D2D graph.
type DoorID int

// PartitionID identifies an indoor partition within a venue. Partition IDs
// are dense indices into Venue.Partitions.
type PartitionID int

// NoPartition marks the absence of a partition, e.g. the outdoor side of a
// building entrance door.
const NoPartition PartitionID = -1

// DefaultHallwayThreshold is the paper's β parameter: a partition with more
// than β doors is a hallway partition. The paper uses β = 4.
const DefaultHallwayThreshold = 4

// Class describes the real-world role of a partition. The role is
// informational (it drives synthetic venue generation, object placement and
// traversal costs); the paper's no-through / general / hallway
// classification is computed from the door count and β, see Partition.Kind.
type Class int

// Partition classes.
const (
	ClassRoom Class = iota
	ClassHallway
	ClassStaircase
	ClassLift
	ClassEscalator
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRoom:
		return "room"
	case ClassHallway:
		return "hallway"
	case ClassStaircase:
		return "staircase"
	case ClassLift:
		return "lift"
	case ClassEscalator:
		return "escalator"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Kind is the paper's partition classification (Section 2): a no-through
// partition has exactly one door, a hallway partition has more than β doors,
// and every other partition is a general partition.
type Kind int

// Partition kinds following Section 2 of the paper.
const (
	KindNoThrough Kind = iota
	KindGeneral
	KindHallway
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNoThrough:
		return "no-through"
	case KindGeneral:
		return "general"
	case KindHallway:
		return "hallway"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Door is a connection point between at most two indoor partitions, or
// between a partition and the outside of the venue.
type Door struct {
	ID   DoorID
	Name string
	// Loc is the position of the door. Doors of staircases and lifts have
	// the floor of the partition side they open onto.
	Loc geom.Point
	// Partitions lists the partitions this door belongs to: one entry for an
	// exterior door, two for an interior door.
	Partitions []PartitionID
}

// ConnectsPartition reports whether the door belongs to partition p.
func (d *Door) ConnectsPartition(p PartitionID) bool {
	for _, q := range d.Partitions {
		if q == p {
			return true
		}
	}
	return false
}

// OtherPartition returns the partition on the other side of the door from p,
// or NoPartition if the door is exterior or does not belong to p.
func (d *Door) OtherPartition(p PartitionID) PartitionID {
	if len(d.Partitions) != 2 {
		return NoPartition
	}
	switch p {
	case d.Partitions[0]:
		return d.Partitions[1]
	case d.Partitions[1]:
		return d.Partitions[0]
	default:
		return NoPartition
	}
}

// Partition is an indoor partition: a room, hallway, staircase, lift or
// escalator segment. A staircase or escalator connecting two floors is a
// single partition with one door on each floor; a lift spanning n floors is
// modelled as n-1 partitions, each connecting two consecutive floors
// (Section 2).
type Partition struct {
	ID     PartitionID
	Name   string
	Class  Class
	Bounds geom.Rect
	// Doors lists the doors on the boundary of this partition. In a built
	// venue it is never empty: Builder.Build refuses a partition without
	// doors, and decoded venues pass through it too.
	Doors []DoorID
	// TraversalCost, when positive, overrides the intra-partition distance
	// between every pair of the partition's doors. It models the walking
	// cost (or travel time) of stairs, lifts and escalators, whose geometry
	// does not reflect the effort of moving between floors.
	TraversalCost float64
}

// Venue is a complete indoor space: a set of partitions connected by doors,
// optionally augmented with outdoor edges between building entrances (used
// by campus data sets, Section 4.1). Venues are immutable once built.
type Venue struct {
	Name string
	// HallwayThreshold is the paper's β parameter used to classify hallway
	// partitions. The default is DefaultHallwayThreshold.
	HallwayThreshold int

	Doors      []Door
	Partitions []Partition

	// OutdoorEdges are explicit door-to-door edges outside any partition,
	// e.g. footpaths between the entrance doors of different buildings.
	OutdoorEdges []OutdoorEdge

	d2d *D2DGraph
}

// OutdoorEdge is an explicit edge of the D2D graph between two doors that is
// not induced by a shared partition (e.g. the outdoor path between the
// entrances of two campus buildings).
type OutdoorEdge struct {
	From, To DoorID
	Weight   float64
}

// NumDoors returns the number of doors in the venue.
func (v *Venue) NumDoors() int { return len(v.Doors) }

// NumPartitions returns the number of indoor partitions in the venue.
func (v *Venue) NumPartitions() int { return len(v.Partitions) }

// Door returns the door with the given ID. It panics if the ID is out of
// range, which always indicates a programming error.
func (v *Venue) Door(id DoorID) *Door { return &v.Doors[id] }

// Partition returns the partition with the given ID. It panics if the ID is
// out of range.
func (v *Venue) Partition(id PartitionID) *Partition { return &v.Partitions[id] }

// Kind returns the paper's classification of partition p: no-through,
// general or hallway (Section 2).
func (v *Venue) Kind(p PartitionID) Kind {
	part := v.Partition(p)
	beta := v.HallwayThreshold
	if beta <= 0 {
		beta = DefaultHallwayThreshold
	}
	switch {
	case len(part.Doors) <= 1:
		return KindNoThrough
	case len(part.Doors) > beta:
		return KindHallway
	default:
		return KindGeneral
	}
}

// AdjacentPartitions returns the partitions sharing at least one door with p,
// excluding p itself, in ascending order without duplicates.
func (v *Venue) AdjacentPartitions(p PartitionID) []PartitionID {
	seen := make(map[PartitionID]bool)
	var out []PartitionID
	for _, did := range v.Partition(p).Doors {
		other := v.Door(did).OtherPartition(p)
		if other != NoPartition && !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	sortPartitionIDs(out)
	return out
}

// CommonDoors returns the doors shared by partitions a and b.
func (v *Venue) CommonDoors(a, b PartitionID) []DoorID {
	var out []DoorID
	for _, did := range v.Partition(a).Doors {
		if v.Door(did).ConnectsPartition(b) {
			out = append(out, did)
		}
	}
	return out
}

// UsefulDoors returns the doors of partition p worth considering as the exit
// (or entry) doors of a query between p and partition other: doors that only
// lead into a no-through partition are skipped, unless that partition is the
// other query endpoint itself. This is the optimisation of Section 4.3.1,
// shared by the baselines that enumerate door pairs.
func (v *Venue) UsefulDoors(p, other PartitionID) []DoorID {
	doors := v.Partition(p).Doors
	useful := make([]DoorID, 0, len(doors))
	for _, d := range doors {
		op := v.Door(d).OtherPartition(p)
		if op != NoPartition && op != other && v.Kind(op) == KindNoThrough {
			continue
		}
		useful = append(useful, d)
	}
	if len(useful) == 0 {
		return doors
	}
	return useful
}

// IntraPartitionDist returns the indoor walking distance between two doors of
// the same partition p. For staircases, lifts and escalators the partition's
// TraversalCost is used; otherwise the planar Euclidean distance between the
// door locations.
func (v *Venue) IntraPartitionDist(p PartitionID, a, b DoorID) float64 {
	part := v.Partition(p)
	if part.TraversalCost > 0 {
		return part.TraversalCost
	}
	return v.Door(a).Loc.PlanarDist(v.Door(b).Loc)
}

// DistToDoor returns the walking distance from a location inside partition p
// to one of p's doors. For partitions with a traversal cost the cost is used
// (a point "inside" a staircase is treated as one landing away from either
// door); otherwise the planar Euclidean distance.
func (v *Venue) DistToDoor(loc Location, d DoorID) float64 {
	part := v.Partition(loc.Partition)
	if part.TraversalCost > 0 {
		return part.TraversalCost / 2
	}
	return loc.Point.PlanarDist(v.Door(d).Loc)
}

// SamePartitionDist returns the walking distance between two locations in
// one partition: its traversal cost when it has one, otherwise the planar
// Euclidean distance. Within a convex partition no path through its doors
// is shorter.
func (v *Venue) SamePartitionDist(s, t Location) float64 {
	part := v.Partition(s.Partition)
	if part.TraversalCost > 0 {
		return part.TraversalCost
	}
	return s.Point.PlanarDist(t.Point)
}

// Floors returns the number of distinct floors spanned by the venue's
// partitions.
func (v *Venue) Floors() int {
	floors := make(map[int]bool)
	for i := range v.Partitions {
		floors[v.Partitions[i].Bounds.Floor] = true
	}
	return len(floors)
}

func sortPartitionIDs(ids []PartitionID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Location is a point inside a specific partition of a venue. Query sources,
// targets and indexed objects are all Locations.
type Location struct {
	Partition PartitionID
	Point     geom.Point
}

// String implements fmt.Stringer.
func (l Location) String() string {
	return fmt.Sprintf("P%d@%s", l.Partition, l.Point)
}
