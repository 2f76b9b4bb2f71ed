package curve

import (
	"fmt"
	"math"
	"sort"

	"allnn/internal/geom"
)

// Kind names a space-filling curve family for partitioning.
type Kind uint8

const (
	// ZOrder partitions by Morton key (any dimensionality).
	ZOrder Kind = 1
	// Hilbert partitions by Hilbert key (2-D only).
	Hilbert Kind = 2
)

func (k Kind) String() string {
	switch k {
	case ZOrder:
		return "zorder"
	case Hilbert:
		return "hilbert"
	default:
		return fmt.Sprintf("curve.Kind(%d)", uint8(k))
	}
}

// ParseKind maps a curve name ("zorder"/"hilbert") to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "zorder", "z":
		return ZOrder, nil
	case "hilbert", "h":
		return Hilbert, nil
	default:
		return 0, fmt.Errorf("curve: unknown curve kind %q (want zorder or hilbert)", s)
	}
}

// Encoder maps points to curve keys. Both ZEncoder and HilbertEncoder
// satisfy it.
type Encoder interface {
	Value(p geom.Point) uint64
}

// NewEncoder builds the encoder for a curve kind over bounds. Hilbert
// requires 2-D bounds.
func NewEncoder(kind Kind, bounds geom.Rect) (Encoder, error) {
	switch kind {
	case ZOrder:
		return NewZEncoder(bounds), nil
	case Hilbert:
		if bounds.Dim() != 2 {
			return nil, fmt.Errorf("curve: Hilbert partitioning requires 2-D data, got %d-D", bounds.Dim())
		}
		return NewHilbertEncoder(bounds), nil
	default:
		return nil, fmt.Errorf("curve: unknown curve kind %d", kind)
	}
}

// Shard is one contiguous curve-key range of a partitioning. Key ranges
// are inclusive on both ends: a point belongs to the shard whose
// [LoKey, HiKey] contains its curve value. Ranges of consecutive shards
// are adjacent (next.LoKey == prev.HiKey+1), so together they tile the
// entire uint64 key space: every representable key lands in exactly one
// shard, including keys of points that were not in the partitioned
// dataset (future inserts route deterministically).
type Shard struct {
	LoKey uint64 // first curve key owned by this shard
	HiKey uint64 // last curve key owned by this shard (inclusive)
	MBR   geom.Rect
	// Points holds indices into the partitioned dataset, in ascending
	// curve-key order. The concatenation of all shards' Points is the
	// curve-sorted order of the whole dataset.
	Points []int
}

// Contains reports whether key falls in the shard's range.
func (s *Shard) Contains(key uint64) bool { return key >= s.LoKey && key <= s.HiKey }

// Partitioning is a dataset cut into balanced contiguous curve-range
// shards. The boundary MBRs are tight over each shard's points — they
// may overlap spatially (curve ranges are disjoint in key space, not in
// geometry), which is exactly why routed queries need MINDIST/NXNDIST
// pruning rather than plain containment tests.
type Partitioning struct {
	Kind   Kind
	Bounds geom.Rect // encoder bounds (bounding rect of the dataset)
	Shards []Shard

	enc Encoder
}

// keyed is a point's curve key beside its index in the dataset.
type keyed struct {
	key uint64
	i   int
}

// radixSort sorts order by key, stably: a least-significant-digit radix
// sort, one pass per key byte. One read counts every byte's digits, and
// a byte all keys share (the high bytes of a 42-bit Hilbert key, say)
// takes no pass.
func radixSort(order []keyed) {
	if len(order) < 2 {
		return
	}
	var counts [8][256]int
	for _, o := range order {
		for b := range counts {
			counts[b][byte(o.key>>(8*b))]++
		}
	}
	src, dst := order, make([]keyed, len(order))
	for b := range counts {
		c := &counts[b]
		if c[byte(src[0].key>>(8*b))] == len(src) {
			continue
		}
		// Turn the counts into each digit's first position.
		sum := 0
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, o := range src {
			d := byte(o.key >> (8 * b))
			dst[c[d]] = o
			c[d]++
		}
		src, dst = dst, src
	}
	copy(order, src)
}

// Partition cuts pts into at most n balanced contiguous curve-range
// shards. Every shard is non-empty; heavily duplicated keys can force
// fewer than n shards (a run of equal keys is never split across a
// boundary, so that each curve value is owned by exactly one shard).
func Partition(pts []geom.Point, n int, kind Kind) (*Partitioning, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("curve: cannot partition an empty dataset")
	}
	if n < 1 {
		return nil, fmt.Errorf("curve: shard count %d < 1", n)
	}
	bounds := geom.BoundingRect(pts)
	enc, err := NewEncoder(kind, bounds)
	if err != nil {
		return nil, err
	}
	// Each point's key is computed once and sorted beside its index;
	// the sort is stable and the input in index order, so ties go to
	// the lower index.
	order := make([]keyed, len(pts))
	for i, p := range pts {
		order[i] = keyed{key: enc.Value(p), i: i}
	}
	radixSort(order)

	part := &Partitioning{Kind: kind, Bounds: bounds, enc: enc}
	start := 0
	for start < len(order) {
		remainingShards := n - len(part.Shards)
		if remainingShards < 1 {
			remainingShards = 1
		}
		size := (len(order) - start + remainingShards - 1) / remainingShards
		end := start + size
		if end > len(order) {
			end = len(order)
		}
		// Never cut inside a run of equal keys: the whole run belongs to
		// the shard that owns its key.
		for end < len(order) && order[end].key == order[end-1].key {
			end++
		}
		idx := make([]int, end-start)
		mbr := geom.EmptyRect(bounds.Dim())
		for j, o := range order[start:end] {
			idx[j] = o.i
			mbr.ExpandPoint(pts[o.i])
		}
		// Key ranges tile the whole key space: the first shard starts at
		// 0, each later one at its first key (strictly greater than the
		// last key before it, by the run rule), and every shard ends just
		// before the next one starts, the last at MaxUint64.
		lo := uint64(0)
		if start > 0 {
			lo = order[start].key
			part.Shards[len(part.Shards)-1].HiKey = lo - 1
		}
		part.Shards = append(part.Shards, Shard{LoKey: lo, HiKey: math.MaxUint64, MBR: mbr, Points: idx})
		start = end
	}
	return part, nil
}

// Key returns the curve key of p under the partitioning's encoder.
func (p *Partitioning) Key(pt geom.Point) uint64 { return p.enc.Value(pt) }

// Locate returns the index of the shard owning pt's curve key.
func (p *Partitioning) Locate(pt geom.Point) int {
	return LocateKey(p.Key(pt), len(p.Shards), func(i int) uint64 { return p.Shards[i].LoKey })
}

// LocateKey finds, by binary search over ascending range starts, the
// index of the shard owning key. n is the shard count and loKey returns
// shard i's LoKey. Because shard ranges tile the key space, every key
// has exactly one owner.
func LocateKey(key uint64, n int, loKey func(int) uint64) int {
	// First shard whose LoKey is > key, minus one.
	i := sort.Search(n, func(i int) bool { return loKey(i) > key })
	if i == 0 {
		return 0
	}
	return i - 1
}
