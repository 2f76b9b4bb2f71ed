// Package pq provides the priority-queue building blocks used by the
// query engines: a float64-keyed binary min-heap for best-first index
// traversal, and a bounded "k best" collector for kNN candidate lists.
//
// The container/heap interface forces an interface{}-shaped element and a
// separate Fix/Push protocol; on the ANN hot path that indirection costs
// enough that hand-rolled generic heaps are worthwhile.
package pq

import "math"

// Item is a keyed heap element.
type Item[T any] struct {
	Key   float64
	Value T
}

// Heap is a binary min-heap ordered by Item.Key. The zero value is an
// empty heap ready for use.
type Heap[T any] struct {
	items []Item[T]
}

// NewHeap returns a heap with capacity preallocated for n items.
func NewHeap[T any](n int) *Heap[T] {
	return &Heap[T]{items: make([]Item[T], 0, n)}
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Clear removes every item, retaining the allocated capacity.
func (h *Heap[T]) Clear() { h.items = h.items[:0] }

// Reset removes every item like Clear, but also zeroes the retained
// backing array so stale references cannot pin their targets between
// uses of a pooled heap.
func (h *Heap[T]) Reset() {
	var zero Item[T]
	items := h.items[:cap(h.items)]
	for i := range items {
		items[i] = zero
	}
	h.items = h.items[:0]
}

// Push queues v with the given key.
func (h *Heap[T]) Push(key float64, v T) {
	h.items = append(h.items, Item[T]{Key: key, Value: v})
	h.siftUp(len(h.items) - 1)
}

// Peek returns the minimum-key item without removing it. The boolean is
// false when the heap is empty.
func (h *Heap[T]) Peek() (Item[T], bool) {
	if len(h.items) == 0 {
		var zero Item[T]
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the minimum-key item. The boolean is false when
// the heap is empty.
func (h *Heap[T]) Pop() (Item[T], bool) {
	if len(h.items) == 0 {
		var zero Item[T]
		return zero, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

func (h *Heap[T]) siftUp(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Key <= item.Key {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = item
}

func (h *Heap[T]) siftDown(i int) {
	item := h.items[i]
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.items[r].Key < h.items[child].Key {
			child = r
		}
		if item.Key <= h.items[child].Key {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = item
}

// KBest collects the k items with the smallest keys seen so far. It is
// the candidate list of a kNN search: Worst() is the pruning bound (the
// k-th best distance, or +Inf while fewer than k candidates are known).
//
// Internally it is a max-heap over the current k best, so Add is
// O(log k) and Worst is O(1).
type KBest[T any] struct {
	k     int
	items []Item[T]
}

// NewKBest returns a collector for the k smallest keys. k must be >= 1.
func NewKBest[T any](k int) *KBest[T] {
	b := &KBest[T]{}
	b.ResetK(k)
	return b
}

// K returns the configured capacity.
func (b *KBest[T]) K() int { return b.k }

// Len returns the number of collected items (<= k).
func (b *KBest[T]) Len() int { return len(b.items) }

// Full reports whether k items have been collected.
func (b *KBest[T]) Full() bool { return len(b.items) == b.k }

// Worst returns the current pruning bound: the largest key among the
// collected items once full, or +Inf while the collector still has room.
func (b *KBest[T]) Worst() float64 {
	if !b.Full() {
		return inf
	}
	return b.items[0].Key
}

// WorstValue returns the value of the largest-key item collected so far —
// the one a successful Add displaces once the collector is full. The
// collector must not be empty.
func (b *KBest[T]) WorstValue() T { return b.items[0].Value }

// Add offers an item. It is kept iff its key beats the current bound;
// the return value reports whether it was kept.
func (b *KBest[T]) Add(key float64, v T) bool {
	if len(b.items) < b.k {
		b.items = append(b.items, Item[T]{Key: key, Value: v})
		b.siftUpMax(len(b.items) - 1)
		return true
	}
	if key >= b.items[0].Key {
		return false
	}
	b.items[0] = Item[T]{Key: key, Value: v}
	b.siftDownMax(0)
	return true
}

// Items returns the collected items sorted by ascending key. The
// collector is consumed: it is empty afterwards.
func (b *KBest[T]) Items() []Item[T] {
	out := make([]Item[T], len(b.items))
	for i := len(b.items) - 1; i >= 0; i-- {
		out[i] = b.popMax()
	}
	return out
}

// AppendItems appends the collected items to dst sorted by ascending key
// and returns the extended slice. The collector is consumed: it is empty
// afterwards. Unlike Items, it lets callers reuse a scratch buffer.
func (b *KBest[T]) AppendItems(dst []Item[T]) []Item[T] {
	base := len(dst)
	n := len(b.items)
	if cap(dst)-base < n {
		grown := make([]Item[T], base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	for i := n - 1; i >= 0; i-- {
		dst[base+i] = b.popMax()
	}
	return dst
}

// Reset empties the collector, retaining capacity.
func (b *KBest[T]) Reset() { b.items = b.items[:0] }

// ResetK empties the collector and re-arms it for the k smallest keys,
// retaining capacity, so a pooled collector serves queries of any k.
// k must be >= 1.
func (b *KBest[T]) ResetK(k int) {
	if k < 1 {
		panic("pq: KBest requires k >= 1")
	}
	b.k = k
	b.items = b.items[:0]
}

func (b *KBest[T]) popMax() Item[T] {
	top := b.items[0]
	last := len(b.items) - 1
	b.items[0] = b.items[last]
	b.items = b.items[:last]
	if last > 0 {
		b.siftDownMax(0)
	}
	return top
}

func (b *KBest[T]) siftUpMax(i int) {
	item := b.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if b.items[parent].Key >= item.Key {
			break
		}
		b.items[i] = b.items[parent]
		i = parent
	}
	b.items[i] = item
}

func (b *KBest[T]) siftDownMax(i int) {
	item := b.items[i]
	n := len(b.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && b.items[r].Key > b.items[child].Key {
			child = r
		}
		if item.Key >= b.items[child].Key {
			break
		}
		b.items[i] = b.items[child]
		i = child
	}
	b.items[i] = item
}

var inf = math.Inf(1)
