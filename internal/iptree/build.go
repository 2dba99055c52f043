package iptree

import (
	"slices"
	"sort"

	"viptree/internal/graph"
	"viptree/internal/model"
)

// This file implements tree construction (Section 2.1.2):
//
//  1. buildLeaves groups adjacent indoor partitions into leaf nodes, keeping
//     every hallway partition in a distinct leaf (rules i and ii).
//  2. buildHierarchy merges nodes level by level with Algorithm 1, choosing
//     merges that maximise the number of shared access doors, and computes
//     the access doors of every node bottom-up.
//  3. buildLeafMatrices runs a Dijkstra search on the D2D graph from every
//     access door of every leaf to populate the leaf distance matrices
//     (distance plus next-hop door), and derives the superior doors of each
//     partition (Definition 2).
//  4. buildNonLeafMatrices builds the level-l graphs G_l and populates the
//     distance matrices of non-leaf nodes bottom-up.

// buildLeaves implements step 1: creating leaf nodes.
func (t *Tree) buildLeaves() {
	v := t.venue
	numParts := v.NumPartitions()
	groupOf := make([]int, numParts)
	for i := range groupOf {
		groupOf[i] = -1
	}
	var groups [][]model.PartitionID

	// Every hallway partition seeds its own group (rule ii keeps hallways in
	// distinct leaves).
	for p := 0; p < numParts; p++ {
		pid := model.PartitionID(p)
		if v.Kind(pid) == model.KindHallway {
			groupOf[p] = len(groups)
			groups = append(groups, []model.PartitionID{pid})
		}
	}

	// Iteratively attach the remaining partitions to adjacent groups. A
	// partition joins the adjacent group with which it shares the most
	// doors (rule i), preferring groups whose hallway lies on the same
	// floor. Merging a non-hallway partition never creates a second hallway
	// in a group, so rule ii holds by construction.
	hallwayFloor := make([]int, len(groups))
	for gi, g := range groups {
		hallwayFloor[gi] = v.Partition(g[0]).Bounds.Floor
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < numParts; p++ {
			if groupOf[p] != -1 {
				continue
			}
			pid := model.PartitionID(p)
			bestGroup, bestScore, bestSameFloor := -1, -1, false
			for _, adj := range v.AdjacentPartitions(pid) {
				g := groupOf[adj]
				if g == -1 {
					continue
				}
				score := len(v.CommonDoors(pid, adj))
				sameFloor := g < len(hallwayFloor) && hallwayFloor[g] == v.Partition(pid).Bounds.Floor
				if score > bestScore || (score == bestScore && sameFloor && !bestSameFloor) {
					bestGroup, bestScore, bestSameFloor = g, score, sameFloor
				}
			}
			if bestGroup >= 0 {
				groupOf[p] = bestGroup
				groups[bestGroup] = append(groups[bestGroup], pid)
				changed = true
			}
		}
	}

	// Any partitions still unassigned belong to connected components with no
	// hallway (or disconnected from every hallway); each such component
	// becomes its own leaf, which matches the paper's termination rule
	// (merging continues as long as it does not create a two-hallway leaf).
	for p := 0; p < numParts; p++ {
		if groupOf[p] != -1 {
			continue
		}
		gi := len(groups)
		groups = append(groups, nil)
		stack := []model.PartitionID{model.PartitionID(p)}
		groupOf[p] = gi
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			groups[gi] = append(groups[gi], cur)
			for _, adj := range v.AdjacentPartitions(cur) {
				if groupOf[adj] == -1 {
					groupOf[adj] = gi
					stack = append(stack, adj)
				}
			}
		}
	}

	// Materialise the leaf nodes. Leaves are created first, so leaf IDs are
	// 0..len(groups)-1 and doorsOfLeaf is a dense slice over them.
	t.leafOfPartition = make([]NodeID, numParts)
	t.doorsOfLeaf = make([][]model.DoorID, len(groups))
	for _, parts := range groups {
		id := NodeID(len(t.nodes))
		sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
		t.nodes = append(t.nodes, Node{ID: id, Parent: invalidNode, Level: 1, Partitions: parts})
		for _, pid := range parts {
			t.leafOfPartition[pid] = id
		}
		t.doorsOfLeaf[id] = doorsOfPartitions(v, parts)
	}
}

// doorsOfPartitions returns the doors of the given partitions as a sorted
// set: the door set of the leaf covering them.
func doorsOfPartitions(v *model.Venue, parts []model.PartitionID) []model.DoorID {
	n := 0
	for _, pid := range parts {
		n += len(v.Partition(pid).Doors)
	}
	doors := make([]model.DoorID, 0, n)
	for _, pid := range parts {
		doors = append(doors, v.Partition(pid).Doors...)
	}
	slices.Sort(doors)
	return slices.Compact(doors)
}

// accessDoorsOfLeaf computes AD(N) for a leaf: the doors connecting it to
// partitions outside the leaf, to the exterior of the venue, or to other
// buildings via outdoor edges.
func (t *Tree) accessDoorsOfLeaf(leaf NodeID) []model.DoorID {
	inLeaf := make(map[model.PartitionID]bool)
	for _, p := range t.nodes[leaf].Partitions {
		inLeaf[p] = true
	}
	var out []model.DoorID
	for _, d := range t.doorsOfLeaf[leaf] {
		if t.doorLeadsOutside(d, func(p model.PartitionID) bool { return inLeaf[p] }) {
			out = append(out, d)
		}
	}
	return out
}

// doorLeadsOutside reports whether door d connects to the space outside the
// region described by inside (a predicate over partitions): it is an
// exterior door, connects to a partition outside the region, or has an
// outdoor edge to a door attached to a partition outside the region.
func (t *Tree) doorLeadsOutside(d model.DoorID, inside func(model.PartitionID) bool) bool {
	v := t.venue
	door := v.Door(d)
	if len(door.Partitions) < 2 {
		return true // exterior door
	}
	for _, p := range door.Partitions {
		if !inside(p) {
			return true
		}
	}
	for _, e := range v.OutdoorEdges {
		var other model.DoorID
		switch d {
		case e.From:
			other = e.To
		case e.To:
			other = e.From
		default:
			continue
		}
		for _, p := range v.Door(other).Partitions {
			if !inside(p) {
				return true
			}
		}
		if len(v.Door(other).Partitions) < 2 {
			return true
		}
	}
	return false
}

// buildHierarchy implements step 2 (Algorithm 1): merging nodes level by
// level until a single root remains, computing access doors bottom-up.
func (t *Tree) buildHierarchy() {
	minDegree := t.opts.minDegree()

	// curNodeOf maps each partition to its current-level node.
	curNodeOf := make([]NodeID, t.venue.NumPartitions())
	current := make([]NodeID, 0, len(t.nodes))
	for i := range t.nodes {
		leaf := &t.nodes[i]
		leaf.AccessDoors = t.accessDoorsOfLeaf(leaf.ID)
		current = append(current, leaf.ID)
		for _, p := range leaf.Partitions {
			curNodeOf[p] = leaf.ID
		}
	}

	level := 1
	for len(current) > minDegree {
		next := t.createNextLevel(current, minDegree, level+1, curNodeOf)
		if len(next) >= len(current) {
			break // no merging possible; avoid an infinite loop
		}
		t.updateCurrentNodes(next, curNodeOf)
		current = next
		level++
	}
	// Merge whatever remains into the root.
	if len(current) == 1 {
		t.root = current[0]
	} else {
		t.root = t.newInternalNode(current, level+1, curNodeOf)
		t.updateCurrentNodes([]NodeID{t.root}, curNodeOf)
	}
}

// indexDoors derives the per-door tables from the node array and the leaf
// door sets, for construction and snapshot restore alike. It marks the
// access doors of leaves (leaf next hops need them) and returns, for pack(),
// the leaves containing each door and the nodes N with the door in AD(N),
// both of which path decomposition and VIP materialisation consult.
func (t *Tree) indexDoors() (leavesOfDoor, accessNodesOfDoor doorCSR) {
	numDoors := t.venue.NumDoors()
	t.isLeafAccessDoor = make([]bool, numDoors)
	for i := range t.nodes {
		if n := &t.nodes[i]; n.IsLeaf() {
			for _, d := range n.AccessDoors {
				t.isLeafAccessDoor[d] = true
			}
		}
	}
	leavesOfDoor = newDoorCSR(numDoors, len(t.doorsOfLeaf), func(n int) []model.DoorID { return t.doorsOfLeaf[n] })
	accessNodesOfDoor = newDoorCSR(numDoors, len(t.nodes), func(n int) []model.DoorID { return t.nodes[n].AccessDoors })
	return leavesOfDoor, accessNodesOfDoor
}

// createNextLevel is Algorithm 1: merge the nodes of the current level so
// that every new node contains at least minDegree current-level nodes,
// preferring merges that maximise the number of shared access doors.
func (t *Tree) createNextLevel(current []NodeID, minDegree, newLevel int, curNodeOf []NodeID) []NodeID {
	type entry struct {
		node     NodeID
		degree   int
		children []NodeID
	}
	entries := make(map[NodeID]*entry, len(current))
	for _, id := range current {
		entries[id] = &entry{node: id, degree: 1, children: []NodeID{id}}
	}
	adjacentCount := func(id NodeID) int {
		count := 0
		for other := range entries {
			if other != id && t.commonAccessDoors(entries[id].children, entries[other].children) > 0 {
				count++
			}
		}
		return count
	}
	// A simple ordered scan stands in for the min-heap of Algorithm 1: at
	// every step pick the unmerged entry with the smallest degree (ties
	// broken by fewest adjacent entries, then by ID for determinism).
	pickMin := func() *entry {
		var best *entry
		bestAdj := 0
		for _, e := range entries {
			if best == nil || e.degree < best.degree ||
				(e.degree == best.degree && adjacentCount(e.node) < bestAdj) ||
				(e.degree == best.degree && adjacentCount(e.node) == bestAdj && e.node < best.node) {
				best = e
				bestAdj = adjacentCount(e.node)
			}
		}
		return best
	}
	for {
		minEntry := pickMin()
		if minEntry == nil || minEntry.degree >= minDegree || len(entries) <= 1 {
			break
		}
		// Find the partner with the largest number of common access doors;
		// fall back to any entry whose doors are connected to ours in the
		// D2D graph (covers buildings linked only by outdoor edges), then
		// to an arbitrary entry.
		var best *entry
		bestScore := -1
		for _, e := range entries {
			if e.node == minEntry.node {
				continue
			}
			score := 2 * t.commonAccessDoors(minEntry.children, e.children)
			if score == 0 && t.connectedViaD2D(minEntry.children, e.children) {
				score = 1 // connected (e.g. via an outdoor path) but sharing no door
			}
			if t.opts.NaiveMerge {
				// Ablation: ignore the access-door heuristic; any connected
				// neighbour is as good as any other.
				if score > 0 {
					score = 1
				}
			}
			if score > bestScore || (score == bestScore && (best == nil || e.node < best.node)) {
				best, bestScore = e, score
			}
		}
		if best == nil {
			break
		}
		delete(entries, minEntry.node)
		delete(entries, best.node)
		merged := &entry{
			node:     minEntry.node, // temporary key; the real node is created below
			degree:   minEntry.degree + best.degree,
			children: append(append([]NodeID(nil), minEntry.children...), best.children...),
		}
		entries[merged.node] = merged
	}
	// Materialise the next-level nodes.
	keys := make([]NodeID, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var next []NodeID
	for _, k := range keys {
		e := entries[k]
		if len(e.children) == 1 {
			// Unmerged node: it is promoted to the next level unchanged and
			// keeps participating in later merges.
			next = append(next, e.children[0])
			continue
		}
		next = append(next, t.newInternalNode(e.children, newLevel, curNodeOf))
	}
	return next
}

// newInternalNode creates a non-leaf node with the given children and
// computes its access doors.
func (t *Tree) newInternalNode(children []NodeID, level int, curNodeOf []NodeID) NodeID {
	id := NodeID(len(t.nodes))
	childSet := make(map[NodeID]bool, len(children))
	for _, c := range children {
		childSet[c] = true
	}
	inside := func(p model.PartitionID) bool { return childSet[curNodeOf[p]] }
	doorSeen := make(map[model.DoorID]bool)
	var access []model.DoorID
	for _, c := range children {
		for _, d := range t.nodes[c].AccessDoors {
			if doorSeen[d] {
				continue
			}
			doorSeen[d] = true
			if t.doorLeadsOutside(d, inside) {
				access = append(access, d)
			}
		}
	}
	sort.Slice(access, func(i, j int) bool { return access[i] < access[j] })
	t.nodes = append(t.nodes, Node{ID: id, Parent: invalidNode, Children: children, Level: level, AccessDoors: access})
	for _, c := range children {
		t.nodes[c].Parent = id
		// Promoted nodes may sit at a lower level than their siblings; the
		// level recorded at creation time is kept (levels only need to be
		// monotone along root paths for LCA computation).
	}
	return id
}

// updateCurrentNodes repoints curNodeOf at the nodes of the new level.
func (t *Tree) updateCurrentNodes(level []NodeID, curNodeOf []NodeID) {
	for _, id := range level {
		t.forEachLeafUnder(id, func(leaf NodeID) {
			for _, p := range t.nodes[leaf].Partitions {
				curNodeOf[p] = id
			}
		})
	}
}

// forEachLeafUnder visits every leaf in the subtree rooted at id.
func (t *Tree) forEachLeafUnder(id NodeID, fn func(NodeID)) {
	if t.nodes[id].IsLeaf() {
		fn(id)
		return
	}
	for _, c := range t.nodes[id].Children {
		t.forEachLeafUnder(c, fn)
	}
}

// commonAccessDoors counts the access doors shared between the unions of two
// groups of nodes.
func (t *Tree) commonAccessDoors(a, b []NodeID) int {
	doors := make(map[model.DoorID]bool)
	for _, n := range a {
		for _, d := range t.nodes[n].AccessDoors {
			doors[d] = true
		}
	}
	count := 0
	seen := make(map[model.DoorID]bool)
	for _, n := range b {
		for _, d := range t.nodes[n].AccessDoors {
			if doors[d] && !seen[d] {
				seen[d] = true
				count++
			}
		}
	}
	return count
}

// connectedViaD2D reports whether any access door of group a has a direct
// D2D edge to an access door of group b (this is how buildings linked only
// by outdoor paths become mergeable).
func (t *Tree) connectedViaD2D(a, b []NodeID) bool {
	bDoors := make(map[int]bool)
	for _, n := range b {
		for _, d := range t.nodes[n].AccessDoors {
			bDoors[int(d)] = true
		}
	}
	g := t.venue.D2D().Graph
	for _, n := range a {
		for _, d := range t.nodes[n].AccessDoors {
			for _, e := range g.Neighbors(int(d)) {
				if bDoors[e.To] {
					return true
				}
			}
		}
	}
	return false
}

// buildLeafMatrices implements step 3: for each access door of each leaf,
// run a Dijkstra search on the D2D graph until every door of the leaf is
// settled, then populate distances and next-hop doors. It returns the
// superior doors of every partition.
//
// Each leaf only reads shared immutable state (the venue, the D2D graph, the
// access-door bookkeeping of indexDoors) and writes leaf-owned state (its
// matrix and the superior doors of its partitions, each partition belonging
// to exactly one leaf), so the per-leaf loop fans out over a worker pool and
// produces bit-identical results at any parallelism.
func (t *Tree) buildLeafMatrices() [][]model.DoorID {
	superiorDoors := make([][]model.DoorID, t.venue.NumPartitions())
	leaves := make([]NodeID, 0, len(t.nodes))
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			leaves = append(leaves, t.nodes[i].ID)
		}
	}
	workers := min(t.opts.workers(), len(leaves))
	scratches := make([]leafScratch, max(workers, 1))
	runParallel(len(leaves), workers, func(w, i int) {
		t.buildOneLeafMatrix(leaves[i], &scratches[w], superiorDoors)
	})
	return superiorDoors
}

// buildOneLeafMatrix populates the distance matrix of a single leaf and the
// superior doors of its partitions, reusing the worker's scratch across leaves: door-membership
// sets reset by epoch, Dijkstra buffers reset per touched vertex, and flat
// superior-door marks — no per-leaf maps or per-entry allocations.
func (t *Tree) buildOneLeafMatrix(id NodeID, sc *leafScratch, superiorDoors [][]model.DoorID) {
	v := t.venue
	d2d := v.D2D().Graph
	leaf := &t.nodes[id]
	doors := t.doorsOfLeaf[id]
	leaf.Matrix = newMatrix(doors, leaf.AccessDoors)

	sc.inLeaf.reset(v.NumDoors())
	sc.access.reset(v.NumDoors())
	for _, d := range doors {
		sc.inLeaf.mark(int(d))
	}
	for _, a := range leaf.AccessDoors {
		sc.access.mark(int(a))
	}
	// Flat superior-door marks: one slot per (partition of the leaf, door of
	// that partition), cleared per leaf.
	sc.supOffset = sc.supOffset[:0]
	total := 0
	for _, pid := range leaf.Partitions {
		sc.supOffset = append(sc.supOffset, total)
		total += len(v.Partition(pid).Doors)
	}
	if cap(sc.supMark) < total {
		sc.supMark = make([]bool, total)
	} else {
		sc.supMark = sc.supMark[:total]
		for i := range sc.supMark {
			sc.supMark[i] = false
		}
	}

	for ai, a := range leaf.AccessDoors {
		sc.search.Reset(d2d.NumVertices())
		sc.search.Seed(int(a), 0)
		for _, d := range doors {
			sc.search.Target(int(d))
		}
		dist, prev := sc.search.Run(d2d)
		for di, d := range doors {
			if dist[int(d)] == graph.Infinity {
				continue
			}
			next := t.leafNextHop(d, a, prev, &sc.inLeaf)
			leaf.Matrix.setAt(di, ai, dist[int(d)], next)
		}
		if !t.opts.DisableSuperiorDoors {
			t.markSuperiorDoors(leaf, a, prev, sc)
		}
	}
	t.assembleSuperiorDoors(leaf, sc, superiorDoors)
}

// leafNextHop determines the next-hop door stored in a leaf matrix for the
// entry (from row door d towards access door a), given the predecessor array
// of the Dijkstra search rooted at a. If the shortest path stays inside the
// leaf the next hop is the first door on it; if it leaves the leaf, the next
// hop is the first door on the path that is an access door of at least one
// leaf (Section 2.1.1 and Example 6); if there is no intermediate door the
// entry is NULL.
func (t *Tree) leafNextHop(d, a model.DoorID, prev []int, inLeaf *epochStamps) model.DoorID {
	if d == a {
		return NoDoor
	}
	// Walk the path d -> ... -> a using the predecessor array rooted at a:
	// prev[x] is the next door after x on the path from x to a. One pass
	// records everything the three cases below need, so no chain slice is
	// materialised.
	first := NoDoor       // first intermediate door on the path
	firstAccess := NoDoor // first intermediate that is a leaf access door
	staysInside := true
	for cur := prev[int(d)]; cur != -1 && model.DoorID(cur) != a; cur = prev[cur] {
		c := model.DoorID(cur)
		if first == NoDoor {
			first = c
		}
		if !inLeaf.has(int(c)) {
			staysInside = false
		}
		if firstAccess == NoDoor && t.isLeafAccessDoor[c] {
			firstAccess = c
		}
	}
	if first == NoDoor {
		return NoDoor
	}
	if staysInside {
		return first
	}
	if firstAccess != NoDoor {
		return firstAccess
	}
	return first
}

// markSuperiorDoors records which doors of the leaf's partitions are proven
// superior (Definition 2) by access door a: the shortest path from the door
// to a passes through no other door of the partition. It is called once per
// access door, while that door's Dijkstra predecessor array is live; the
// marks accumulate across access doors (a door is superior when any access
// door proves it, so the OR over access doors is order-independent).
func (t *Tree) markSuperiorDoors(leaf *Node, a model.DoorID, prev []int, sc *leafScratch) {
	v := t.venue
	for pi, pid := range leaf.Partitions {
		if doorInPartition(v, a, pid) {
			continue // local access door, not a global one
		}
		part := v.Partition(pid)
		off := sc.supOffset[pi]
		for di, d := range part.Doors {
			if sc.supMark[off+di] || sc.access.has(int(d)) {
				continue // already proven, or a local access door
			}
			if prev[int(d)] == -1 && d != a {
				continue // a does not reach d
			}
			clean := true
			for cur := prev[int(d)]; cur != -1 && model.DoorID(cur) != a; cur = prev[cur] {
				if doorInPartition(v, model.DoorID(cur), pid) {
					clean = false
					break
				}
			}
			if clean {
				sc.supMark[off+di] = true
			}
		}
	}
}

// doorInPartition reports whether door d is one of partition pid's doors,
// using the door's (at most two) partition references instead of a set.
func doorInPartition(v *model.Venue, d model.DoorID, pid model.PartitionID) bool {
	for _, p := range v.Door(d).Partitions {
		if p == pid {
			return true
		}
	}
	return false
}

// assembleSuperiorDoors turns the accumulated marks into the superior-door
// lists of the leaf's partitions in superiorDoors: the local access doors
// plus every marked door, in partition-door order.
func (t *Tree) assembleSuperiorDoors(leaf *Node, sc *leafScratch, superiorDoors [][]model.DoorID) {
	v := t.venue
	for pi, pid := range leaf.Partitions {
		part := v.Partition(pid)
		if t.opts.DisableSuperiorDoors {
			superiorDoors[pid] = append([]model.DoorID(nil), part.Doors...)
			continue
		}
		off := sc.supOffset[pi]
		var sup []model.DoorID
		for di, d := range part.Doors {
			if sc.access.has(int(d)) {
				sup = append(sup, d) // local access door
				continue
			}
			if sc.supMark[off+di] {
				sup = append(sup, d)
			}
		}
		// Every partition needs at least one superior door for Eq. (1) to
		// have candidates; degenerate cases (no access doors at all) keep
		// all doors.
		if len(sup) == 0 {
			sup = append(sup, part.Doors...)
		}
		superiorDoors[pid] = sup
	}
}

// buildNonLeafMatrices implements step 4: distance matrices of non-leaf
// nodes computed bottom-up on the level-l graphs. Each level graph is built
// once (sequentially — it reads the matrices of the levels below) and then
// shared read-only by the per-node matrix builds of that level, which fan
// out over a worker pool: every node's matrix depends only on the level
// graph, so parallel builds are bit-identical to sequential ones.
func (t *Tree) buildNonLeafMatrices() {
	// Group nodes by level.
	maxLevel := 0
	for i := range t.nodes {
		if t.nodes[i].Level > maxLevel {
			maxLevel = t.nodes[i].Level
		}
	}
	byLevel := make([][]NodeID, maxLevel+1)
	for i := range t.nodes {
		byLevel[t.nodes[i].Level] = append(byLevel[t.nodes[i].Level], t.nodes[i].ID)
	}

	var ls levelScratch
	workers := t.opts.workers()
	scratches := make([]nodeScratch, max(workers, 1))
	for level := 2; level <= maxLevel; level++ {
		nodesAt := byLevel[level]
		if len(nodesAt) == 0 {
			continue
		}
		gl := t.buildLevelGraph(level, &ls)
		runParallel(len(nodesAt), min(workers, len(nodesAt)), func(w, i int) {
			n := &t.nodes[nodesAt[i]]
			if n.IsLeaf() {
				return
			}
			t.buildNodeMatrix(n, gl, &ls, &scratches[w])
		})
	}
}

// buildLevelGraph constructs G_l: the vertices are the access doors of every
// node whose parent sits at a level >= l (i.e. the nodes visible just below
// level l), and an edge connects two doors when they are access doors of the
// same such node, weighted by that node's matrix distance. The door-to-vertex
// numbering lives in ls, a dense door-indexed table reset by epoch and reused
// across levels.
func (t *Tree) buildLevelGraph(level int, ls *levelScratch) *graph.Graph {
	ls.reset(t.venue.NumDoors())
	g := graph.New(0)
	for i := range t.nodes {
		n := &t.nodes[i]
		// A node contributes its access doors to G_l when it is the child
		// of a node at level >= `level` (or promoted: its own level is
		// below `level` but its parent's is at or above it). Nodes at or
		// above `level` never contribute.
		if n.Level >= level {
			continue
		}
		parent := n.Parent
		if parent == invalidNode || t.nodes[parent].Level < level {
			continue
		}
		if n.Matrix == nil {
			continue
		}
		for i1 := 0; i1 < len(n.AccessDoors); i1++ {
			for i2 := i1 + 1; i2 < len(n.AccessDoors); i2++ {
				a, b := n.AccessDoors[i1], n.AccessDoors[i2]
				w := n.Matrix.Dist(a, b)
				if w == Infinite {
					continue
				}
				g.AddEdge(ls.vertexOf(a), ls.vertexOf(b), w)
			}
		}
	}
	// Outdoor edges between access doors (e.g. building entrances) must be
	// present in every level graph, otherwise separate buildings would be
	// unreachable from one another above the leaf level.
	for _, e := range t.venue.OutdoorEdges {
		from, ok := ls.lookup(e.From)
		if !ok {
			continue
		}
		to, ok := ls.lookup(e.To)
		if !ok {
			continue
		}
		g.AddEdge(from, to, e.Weight)
	}
	// Make sure every vertex exists in the graph even if isolated.
	g.EnsureVertex(len(ls.vertexDoor) - 1)
	return g
}

// buildNodeMatrix populates the distance matrix of a non-leaf node from the
// level graph: rows and columns are the union of its children's access
// doors, and the next-hop entry is the first door of that union on the
// shortest path (Fig 3, node N7). It only reads ls (the level's vertex
// numbering) and gl, so concurrent calls with distinct node scratches are
// safe.
func (t *Tree) buildNodeMatrix(n *Node, gl *graph.Graph, ls *levelScratch, sc *nodeScratch) {
	sc.inNode.reset(t.venue.NumDoors())
	var doors []model.DoorID
	for _, c := range n.Children {
		for _, d := range t.nodes[c].AccessDoors {
			if !sc.inNode.has(int(d)) {
				sc.inNode.mark(int(d))
				doors = append(doors, d)
			}
		}
	}
	sort.Slice(doors, func(i, j int) bool { return doors[i] < doors[j] })
	n.Matrix = newMatrix(doors, doors)

	sc.targets = sc.targets[:0]
	for _, d := range doors {
		if v, ok := ls.lookup(d); ok {
			sc.targets = append(sc.targets, v)
		}
	}
	for fi, from := range doors {
		src, ok := ls.lookup(from)
		if !ok {
			continue
		}
		sc.search.Reset(gl.NumVertices())
		sc.search.Seed(src, 0)
		for _, v := range sc.targets {
			sc.search.Target(v)
		}
		dist, prev := sc.search.Run(gl)
		for ti, to := range doors {
			if to == from {
				n.Matrix.setAt(fi, fi, 0, NoDoor)
				continue
			}
			tv, ok := ls.lookup(to)
			if !ok || dist[tv] == graph.Infinity {
				continue
			}
			n.Matrix.setAt(fi, ti, dist[tv], t.levelNextHop(prev, src, tv, ls, &sc.inNode))
		}
	}
}

// levelNextHop picks the next-hop entry for a non-leaf matrix cell: the first
// intermediate door on the shortest path from src to tv that belongs to the
// node's matrix doors. The predecessor array is rooted at src, so the walk
// runs backwards from tv; the last matching door seen is the one closest to
// src, i.e. the first on the forward path — no path slice is materialised.
func (t *Tree) levelNextHop(prev []int, src, tv int, ls *levelScratch, inNode *epochStamps) model.DoorID {
	next := NoDoor
	firstAfterSrc := -1
	for cur := prev[tv]; cur != -1 && cur != src; cur = prev[cur] {
		d := ls.vertexDoor[cur]
		if inNode.has(int(d)) {
			next = d
		}
		firstAfterSrc = cur
	}
	// If intermediate vertices exist but none belongs to this node's
	// children, keep the first one anyway so that path decomposition never
	// silently drops doors; the decomposition routine falls back to a graph
	// search for such edges.
	if next == NoDoor && firstAfterSrc != -1 {
		next = ls.vertexDoor[firstAfterSrc]
	}
	return next
}
