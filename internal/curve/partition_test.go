package curve

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"allnn/internal/datagen"
	"allnn/internal/geom"
)

// checkPartitioning asserts the range-partition invariants: shard key
// ranges are disjoint, adjacent, and cover the whole uint64 key space;
// every input point's curve value lands in exactly one shard's range,
// and that shard is the one holding the point; MBRs are tight.
func checkPartitioning(t *testing.T, pts []geom.Point, part *Partitioning, want int) {
	t.Helper()
	if len(part.Shards) == 0 {
		t.Fatal("partitioning has no shards")
	}
	if len(part.Shards) > want {
		t.Fatalf("got %d shards, requested at most %d", len(part.Shards), want)
	}

	// Coverage and disjointness: ranges are adjacent, start at 0, end at
	// MaxUint64, and each is non-inverted.
	if lo := part.Shards[0].LoKey; lo != 0 {
		t.Fatalf("first shard LoKey = %d, want 0", lo)
	}
	if hi := part.Shards[len(part.Shards)-1].HiKey; hi != math.MaxUint64 {
		t.Fatalf("last shard HiKey = %d, want MaxUint64", hi)
	}
	for i, s := range part.Shards {
		if s.HiKey < s.LoKey {
			t.Fatalf("shard %d has inverted range [%d, %d]", i, s.LoKey, s.HiKey)
		}
		if len(s.Points) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		if i > 0 {
			prev := part.Shards[i-1]
			if s.LoKey != prev.HiKey+1 {
				t.Fatalf("shard %d LoKey = %d, want %d (gap/overlap after shard %d)", i, s.LoKey, prev.HiKey+1, i-1)
			}
		}
	}

	// Balance: with distinct keys the largest shard should not dwarf the
	// smallest (equal-key runs may skew this, so allow 2x + run slack).
	min, max := len(pts), 0
	total := 0
	for _, s := range part.Shards {
		if len(s.Points) < min {
			min = len(s.Points)
		}
		if len(s.Points) > max {
			max = len(s.Points)
		}
		total += len(s.Points)
	}
	if total != len(pts) {
		t.Fatalf("shards hold %d points, dataset has %d", total, len(pts))
	}

	// Every point: key in exactly one range, owner shard holds it, MBR
	// contains it.
	owners := make(map[int]int) // point index -> shard
	for si, s := range part.Shards {
		for _, pi := range s.Points {
			if prev, dup := owners[pi]; dup {
				t.Fatalf("point %d appears in shards %d and %d", pi, prev, si)
			}
			owners[pi] = si
		}
	}
	for pi, p := range pts {
		key := part.Key(p)
		matches := 0
		owner := -1
		for si := range part.Shards {
			if part.Shards[si].Contains(key) {
				matches++
				owner = si
			}
		}
		if matches != 1 {
			t.Fatalf("point %d key %d is contained by %d shard ranges, want exactly 1", pi, key, matches)
		}
		if owners[pi] != owner {
			t.Fatalf("point %d held by shard %d but its key %d is owned by shard %d", pi, owners[pi], key, owner)
		}
		if got := part.Locate(p); got != owner {
			t.Fatalf("Locate(point %d) = %d, want %d", pi, got, owner)
		}
		if !part.Shards[owner].MBR.Contains(p) {
			t.Fatalf("shard %d MBR %v does not contain its point %v", owner, part.Shards[owner].MBR, p)
		}
	}

	// Keys within each shard are ascending (curve order preserved).
	for si, s := range part.Shards {
		for j := 1; j < len(s.Points); j++ {
			a := part.Key(pts[s.Points[j-1]])
			b := part.Key(pts[s.Points[j]])
			if a > b {
				t.Fatalf("shard %d points not in curve order at position %d", si, j)
			}
		}
	}
}

func TestPartitionHilbert2D(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		pts := datagen.GaussianClusters(41, 600, datagen.UnitBounds(2), 5, 0.04)
		part, err := Partition(pts, n, Hilbert)
		if err != nil {
			t.Fatalf("Partition(hilbert, %d shards): %v", n, err)
		}
		checkPartitioning(t, pts, part, n)
	}
}

func TestPartitionZOrderDims(t *testing.T) {
	for _, dim := range []int{2, 3, 7} {
		for _, n := range []int{3, 5} {
			pts := datagen.Uniform(int64(dim)*100+int64(n), 500, datagen.UnitBounds(dim))
			part, err := Partition(pts, n, ZOrder)
			if err != nil {
				t.Fatalf("Partition(zorder, dim %d, %d shards): %v", dim, n, err)
			}
			checkPartitioning(t, pts, part, n)
		}
	}
}

// TestPartitionDuplicateKeys forces long equal-key runs (all points in
// one grid cell per cluster) and checks runs are never split.
func TestPartitionDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pts []geom.Point
	// Three distinct locations, each repeated many times: at most three
	// distinct curve keys.
	locs := []geom.Point{{0.1, 0.1}, {0.5, 0.55}, {0.9, 0.85}}
	for i := 0; i < 120; i++ {
		pts = append(pts, locs[rng.Intn(len(locs))].Clone())
	}
	part, err := Partition(pts, 8, ZOrder)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Shards) > 3 {
		t.Fatalf("got %d shards from 3 distinct keys, want <= 3", len(part.Shards))
	}
	checkPartitioning(t, pts, part, 8)
}

// referencePartition is Partition as first written: per-point keys
// ordered by a stable sort of indices, shards cut the same way, key
// ranges assigned afterwards. It pins Partition's output.
func referencePartition(pts []geom.Point, n int, kind Kind) []Shard {
	bounds := geom.BoundingRect(pts)
	enc, err := NewEncoder(kind, bounds)
	if err != nil {
		panic(err)
	}
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = enc.Value(p)
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	var shards []Shard
	for start := 0; start < len(order); {
		size := (len(order) - start + max(n-len(shards), 1) - 1) / max(n-len(shards), 1)
		end := min(start+size, len(order))
		for end < len(order) && keys[order[end]] == keys[order[end-1]] {
			end++
		}
		idx := append([]int(nil), order[start:end]...)
		mbr := geom.EmptyRect(bounds.Dim())
		for _, i := range idx {
			mbr.ExpandPoint(pts[i])
		}
		shards = append(shards, Shard{MBR: mbr, Points: idx})
		start = end
	}
	for i := range shards {
		if i > 0 {
			shards[i].LoKey = shards[i-1].HiKey + 1
		}
		shards[i].HiKey = math.MaxUint64
		if i < len(shards)-1 {
			shards[i].HiKey = keys[shards[i+1].Points[0]] - 1
		}
	}
	return shards
}

// TestPartitionMatchesStableOrder holds every shard's points, MBR and
// key range to the stable-sort reference, over sets heavy with equal
// keys, odd sizes and shard counts from one to more than there are keys.
func TestPartitionMatchesStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	locs := datagen.Uniform(12, 9, datagen.UnitBounds(2))
	dups := make([]geom.Point, 300)
	for i := range dups {
		dups[i] = locs[rng.Intn(len(locs))].Clone()
	}
	mixed := append(datagen.GaussianClusters(13, 400, datagen.UnitBounds(2), 4, 0.05), dups[:120]...)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	wide := datagen.Uniform(14, 200, datagen.UnitBounds(3))
	wide = append(wide, wide[:80]...)
	// Odd-sized clustered data, a fifth of it repeated: runs of equal
	// keys of every length, some across the balanced cut points.
	clustered := datagen.GaussianClusters(15, 20_001, datagen.UnitBounds(2), 7, 0.01)
	for i := 0; i < 4_001; i++ {
		clustered = append(clustered, clustered[rng.Intn(2_000)].Clone())
	}
	rng.Shuffle(len(clustered), func(i, j int) { clustered[i], clustered[j] = clustered[j], clustered[i] })
	for _, tc := range []struct {
		name string
		pts  []geom.Point
		kind Kind
	}{
		{"dups/hilbert", dups, Hilbert},
		{"dups/zorder", dups, ZOrder},
		{"mixed/hilbert", mixed, Hilbert},
		{"mixed/zorder", mixed, ZOrder},
		{"3d/zorder", wide, ZOrder},
		{"clustered/hilbert", clustered, Hilbert},
		{"clustered/zorder", clustered, ZOrder},
	} {
		for _, n := range []int{1, 3, 4, 7, len(tc.pts) + 1} {
			part, err := Partition(tc.pts, n, tc.kind)
			if err != nil {
				t.Fatalf("%s, %d shards: %v", tc.name, n, err)
			}
			want := referencePartition(tc.pts, n, tc.kind)
			if len(part.Shards) != len(want) {
				t.Fatalf("%s, %d shards: got %d shards, reference %d", tc.name, n, len(part.Shards), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(part.Shards[i], want[i]) {
					t.Fatalf("%s, %d shards: shard %d = %+v, reference %+v", tc.name, n, i, part.Shards[i], want[i])
				}
			}
		}
	}
}

func TestPartitionSmallAndDegenerate(t *testing.T) {
	// Fewer points than shards.
	pts := datagen.Uniform(3, 3, datagen.UnitBounds(2))
	part, err := Partition(pts, 10, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitioning(t, pts, part, 10)

	// Single point.
	part, err = Partition(pts[:1], 4, ZOrder)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitioning(t, pts[:1], part, 4)

	if _, err := Partition(nil, 2, ZOrder); err == nil {
		t.Fatal("Partition(empty) should fail")
	}
	if _, err := Partition(pts, 0, ZOrder); err == nil {
		t.Fatal("Partition(0 shards) should fail")
	}
	pts3 := datagen.Uniform(5, 16, datagen.UnitBounds(3))
	if _, err := Partition(pts3, 2, Hilbert); err == nil {
		t.Fatal("Hilbert partition of 3-D data should fail")
	}
}

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"zorder", ZOrder}, {"z", ZOrder}, {"hilbert", Hilbert}, {"h", Hilbert}} {
		got, err := ParseKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseKind(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseKind("peano"); err == nil {
		t.Fatal("ParseKind(peano) should fail")
	}
	if ZOrder.String() != "zorder" || Hilbert.String() != "hilbert" {
		t.Fatal("Kind.String mismatch")
	}
}

// BenchmarkPartition times cutting 200 K clustered 2-D points into 4
// Hilbert shards, the routed workload's partitioning.
func BenchmarkPartition(b *testing.B) {
	pts := datagen.GaussianClusters(1, 200_000, datagen.UnitBounds(2), 40, 0.02)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(pts, 4, Hilbert); err != nil {
			b.Fatal(err)
		}
	}
}
