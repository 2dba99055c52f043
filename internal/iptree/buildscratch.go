package iptree

import (
	"runtime"
	"sync"
	"sync/atomic"

	"viptree/internal/graph"
	"viptree/internal/model"
)

// This file implements the reusable scratch state of tree construction. The
// build loops of Section 2.1.2 are hot: every leaf runs one Dijkstra search
// per access door and every non-leaf node one per matrix row. The per-node
// working sets (door membership, superior-door marks, level-graph vertex
// numbering) therefore live in epoch-stamped dense tables recycled across
// nodes — and, because each node's matrix only depends on read-only inputs
// (the venue, the D2D graph, the level graph and the matrices of lower
// levels), across goroutines: every worker owns one scratch and the per-node
// loops fan out over a worker pool (Options.Parallelism).

// workers resolves the construction worker count: Options.Parallelism, or
// GOMAXPROCS when unset.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runParallel executes fn(worker, i) for every i in [0, n) over the given
// number of workers. Items are handed out through an atomic counter, so the
// assignment of items to workers is non-deterministic — callers must ensure
// fn writes only item-owned state (disjoint per i), which is what makes
// parallel builds bit-identical to sequential ones. With one worker it
// degenerates to a plain loop on the calling goroutine.
//
// A panic in fn is captured (first one wins), the pool drains, and the
// panic value is re-raised on the calling goroutine, so a recover around
// runParallel — the engine's per-query panic isolation reaches index calls
// through exactly that — observes worker panics instead of the process
// dying on an unrecovered goroutine.
func runParallel(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		panicVal any
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil && panicked.CompareAndSwap(false, true) {
					panicVal = v
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// epochStamps is a dense stamped membership set over integer IDs (doors,
// nodes, objects) with O(1) reset: an ID is a member only when its stamp
// equals the current epoch, so clearing the set is one increment. Every
// transient working set of the build and query pipelines shares this one
// implementation of the reset/wrap rule.
type epochStamps struct {
	stamp []uint32
	epoch uint32
}

// reset prepares the set for IDs in [0, n), clearing it. It allocates only
// on first use (or if n grew).
func (es *epochStamps) reset(n int) {
	if len(es.stamp) < n {
		es.stamp = make([]uint32, n)
		es.epoch = 1
		return
	}
	es.epoch++
	if es.epoch == 0 { // epoch wrapped: clear the stamps and restart
		for i := range es.stamp {
			es.stamp[i] = 0
		}
		es.epoch = 1
	}
}

func (es *epochStamps) mark(i int) { es.stamp[i] = es.epoch }
func (es *epochStamps) has(i int) bool {
	return es.stamp[i] == es.epoch
}

// leafScratch is the per-worker working set of buildLeafMatrices: the
// Dijkstra buffers, the door-membership sets of the current leaf and the
// superior-door marks of its partitions.
type leafScratch struct {
	search graph.SearchScratch
	// inLeaf marks the doors of the current leaf.
	inLeaf epochStamps
	// access marks the access doors of the current leaf.
	access epochStamps
	// supMark[supOffset[pi]+di] records that door di of the leaf's pi-th
	// partition has been proven superior; both slices are resized per leaf.
	supMark   []bool
	supOffset []int
}

// nodeScratch is the per-worker working set of buildNodeMatrix: the Dijkstra
// buffers over the level graph and the door-membership set of the node's
// matrix doors.
type nodeScratch struct {
	search  graph.SearchScratch
	inNode  epochStamps
	targets []int
}

// levelScratch carries the level-graph vertex numbering across levels
// (vertex[d] is door d's vertex in the current level graph, valid when door
// d is in the stamped set), so rebuilding G_l for every level reuses one
// dense door-indexed table instead of growing a fresh map each time.
type levelScratch struct {
	vertex     []int32
	seen       epochStamps
	vertexDoor []model.DoorID
}

// reset invalidates the numbering for a venue with n doors.
func (ls *levelScratch) reset(n int) {
	if len(ls.vertex) < n {
		ls.vertex = make([]int32, n)
	}
	ls.seen.reset(n)
	ls.vertexDoor = ls.vertexDoor[:0]
}

// vertexOf returns door d's vertex in the current level graph, assigning the
// next dense vertex ID on first sight.
func (ls *levelScratch) vertexOf(d model.DoorID) int {
	if ls.seen.has(int(d)) {
		return int(ls.vertex[d])
	}
	v := len(ls.vertexDoor)
	ls.vertex[d] = int32(v)
	ls.seen.mark(int(d))
	ls.vertexDoor = append(ls.vertexDoor, d)
	return v
}

// lookup returns door d's vertex without assigning one.
func (ls *levelScratch) lookup(d model.DoorID) (int, bool) {
	if ls.seen.has(int(d)) {
		return int(ls.vertex[d]), true
	}
	return 0, false
}

// vipScratchBuild is the per-worker working set of VIP materialisation: the
// dense distance/via table over doors.
type vipScratchBuild struct {
	tab doorTable
	// propDoors/propRows pair each child access door of the node being
	// propagated with its row position in the node's matrix.
	propDoors []model.DoorID
	propRows  []int32
}

func (sc *vipScratchBuild) reset(numDoors int) { sc.tab.reset(numDoors) }
