package graph

// heapItem is an entry in the distance priority queue.
type heapItem struct {
	vertex int
	dist   float64
}

// minHeap is a binary min-heap of (vertex, distance) pairs ordered by
// distance, the priority queue of SearchScratch. It is intentionally simpler
// than container/heap: Dijkstra only needs Push and PopMin and uses lazy
// deletion for decrease-key, so a specialised implementation avoids the
// interface overhead on the hot path. The zero value is an empty heap.
type minHeap struct {
	items []heapItem
}

// Push adds a (vertex, dist) entry.
func (h *minHeap) Push(vertex int, dist float64) {
	h.items = append(h.items, heapItem{vertex: vertex, dist: dist})
	h.up(len(h.items) - 1)
}

// PopMin removes and returns the entry with the smallest distance. It panics
// if the heap is empty.
func (h *minHeap) PopMin() (int, float64) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.vertex, top.dist
}

func (h *minHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].dist <= h.items[i].dist {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

// down reads the items through a local slice, which keeps it within the
// compiler's inlining budget: inlined into PopMin, it spares the search one
// call per settled vertex.
func (h *minHeap) down(i int) {
	items := h.items
	for {
		left := 2*i + 1
		if left >= len(items) {
			return
		}
		smallest := left
		if right := left + 1; right < len(items) && items[right].dist < items[left].dist {
			smallest = right
		}
		if items[i].dist <= items[smallest].dist {
			return
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
}
