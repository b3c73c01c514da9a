package regions

import (
	"math/rand"
	"testing"
	"testing/quick"

	"wsnva/internal/field"
	"wsnva/internal/geom"
)

// Property-based tests on the summary algebra. The generator draws random
// 8x8 binary maps from the quick harness's random source; the properties
// must hold for every map and every decomposition.

// mapFromSeed derives a deterministic random map from a quick-generated
// seed.
func mapFromSeed(seed int64, density int) *field.BinaryMap {
	g := geom.NewSquareGrid(8, 8)
	rng := rand.New(rand.NewSource(seed))
	bits := make([]bool, g.N())
	for i := range bits {
		bits[i] = rng.Intn(density) == 0
	}
	return field.FromBits(g, bits)
}

// Property: count and total cells from the distributed summary equal the
// sequential ground truth, for any random map.
func TestQuickSummaryMatchesGroundTruth(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		m := mapFromSeed(seed, int(d%4)+2)
		s := LeafBlock(m, 0, 0, 8, 8)
		truth := Label(m)
		return s.Count() == truth.Count && s.TotalCells() == m.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merging is decomposition-invariant — splitting the grid at any
// column and merging halves gives the same summary as direct labeling.
func TestQuickMergeDecompositionInvariant(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		m := mapFromSeed(seed, 3)
		split := int(splitRaw%7) + 1 // column split in [1,7]
		left := LeafBlock(m, 0, 0, split, 8)
		right := LeafBlock(m, split, 0, 8-split, 8)
		left.Merge(right)
		return left.Equal(LeafBlock(m, 0, 0, 8, 8))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merge is commutative — a.Merge(b) equals b.Merge(a).
func TestQuickMergeCommutative(t *testing.T) {
	f := func(seed int64, splitRaw uint8) bool {
		m := mapFromSeed(seed, 3)
		split := int(splitRaw%7) + 1
		a1 := LeafBlock(m, 0, 0, split, 8)
		b1 := LeafBlock(m, split, 0, 8-split, 8)
		a2 := LeafBlock(m, 0, 0, split, 8)
		b2 := LeafBlock(m, split, 0, 8-split, 8)
		a1.Merge(b1)
		b2.Merge(a2)
		return a1.Equal(b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: merge is associative over a three-way vertical decomposition.
func TestQuickMergeAssociative(t *testing.T) {
	f := func(seed int64, cutRaw uint16) bool {
		m := mapFromSeed(seed, 3)
		c1 := int(cutRaw%5) + 1        // [1,5]
		c2 := c1 + int(cutRaw/5%2) + 1 // (c1, 7]
		a := func() *Summary { return LeafBlock(m, 0, 0, c1, 8) }
		b := func() *Summary { return LeafBlock(m, c1, 0, c2-c1, 8) }
		c := func() *Summary { return LeafBlock(m, c2, 0, 8-c2, 8) }
		// (a+b)+c
		left := a()
		left.Merge(b())
		left.Merge(c())
		// a+(b+c)
		right := b()
		right.Merge(c())
		right.Merge(a())
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cloning is a fixed point — a clone equals its source and
// merging the clone leaves the source untouched.
func TestQuickCloneIndependence(t *testing.T) {
	f := func(seed int64) bool {
		m := mapFromSeed(seed, 3)
		src := LeafBlock(m, 0, 0, 4, 8)
		clone := src.Clone()
		if !clone.Equal(src) {
			return false
		}
		other := LeafBlock(m, 4, 0, 4, 8)
		clone.Merge(other)
		return src.Equal(LeafBlock(m, 0, 0, 4, 8))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: summary size is monotone under closure — a complete-coverage
// summary never carries boundary cells, so its size is 2 + 3·regions.
func TestQuickCompleteSummaryCompressed(t *testing.T) {
	f := func(seed int64) bool {
		m := mapFromSeed(seed, 2)
		s := LeafBlock(m, 0, 0, 8, 8)
		if s.CoveredCells() != m.Grid.N() {
			return false
		}
		for _, r := range s.Regions() {
			if !r.Closed || r.Border != nil {
				return false
			}
		}
		return s.Size() == int64(2+3*s.Count())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: region labels are canonical — each label is the minimum cell
// index of its ground-truth region, and labels are unique.
func TestQuickCanonicalLabels(t *testing.T) {
	f := func(seed int64) bool {
		m := mapFromSeed(seed, 3)
		s := LeafBlock(m, 0, 0, 8, 8)
		truth := Label(m)
		seen := map[int]bool{}
		for _, r := range s.Regions() {
			if seen[r.Label] {
				return false
			}
			seen[r.Label] = true
			if truth.Labels[r.Label] != r.Label {
				return false // label must be its own region's minimum
			}
		}
		return len(seen) == truth.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
