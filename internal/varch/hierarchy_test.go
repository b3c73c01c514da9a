package varch

import (
	"testing"

	"wsnva/internal/geom"
)

func grid4() *geom.Grid { return geom.NewSquareGrid(4, 4) }

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(geom.NewGrid(4, 2, geom.Rect{MaxX: 4, MaxY: 2})); err == nil {
		t.Error("non-square grid should be rejected")
	}
	if _, err := NewHierarchy(geom.NewSquareGrid(3, 3)); err == nil {
		t.Error("non-power-of-two side should be rejected")
	}
	h, err := NewHierarchy(grid4())
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels != 2 {
		t.Errorf("Levels = %d, want 2", h.Levels)
	}
	if MustHierarchy(grid4()).Levels != 2 {
		t.Error("MustHierarchy")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustHierarchy should panic on bad grid")
		}
	}()
	MustHierarchy(geom.NewSquareGrid(5, 5))
}

func TestLeaderAtPaperExample(t *testing.T) {
	// Paper Section 3.2: level-1 partitions into 2x2 blocks with NW-corner
	// leaders; Figure 3 places them at Morton indices 0, 4, 8, 12.
	h := MustHierarchy(grid4())
	wantLeaders := map[geom.Coord]bool{
		{Col: 0, Row: 0}: true, {Col: 2, Row: 0}: true,
		{Col: 0, Row: 2}: true, {Col: 2, Row: 2}: true,
	}
	got := h.Leaders(1)
	if len(got) != 4 {
		t.Fatalf("level-1 leader count = %d, want 4", len(got))
	}
	for _, l := range got {
		if !wantLeaders[l] {
			t.Errorf("unexpected level-1 leader %v", l)
		}
		if geom.MortonIndex(l)%4 != 0 {
			t.Errorf("leader %v has Morton index %d, want multiple of 4", l, geom.MortonIndex(l))
		}
	}
	// Every node's level-1 leader is the NW corner of its 2x2 block.
	if h.LeaderAt(geom.Coord{Col: 3, Row: 1}, 1) != (geom.Coord{Col: 2, Row: 0}) {
		t.Error("LeaderAt(3,1 @1) wrong")
	}
	if h.LeaderAt(geom.Coord{Col: 1, Row: 3}, 2) != (geom.Coord{Col: 0, Row: 0}) {
		t.Error("every node's level-2 leader is the origin")
	}
}

func TestLevelZeroEveryNodeLeads(t *testing.T) {
	h := MustHierarchy(grid4())
	for _, c := range h.Grid.Coords() {
		if !h.IsLeader(c, 0) {
			t.Errorf("%v should be a level-0 leader", c)
		}
		if h.LeaderAt(c, 0) != c {
			t.Errorf("LeaderAt(%v, 0) = %v", c, h.LeaderAt(c, 0))
		}
	}
	if len(h.Leaders(0)) != 16 {
		t.Error("all 16 nodes lead at level 0")
	}
	if len(h.Leaders(2)) != 1 || h.Leaders(2)[0] != h.Root() {
		t.Error("exactly one top-level leader at the origin")
	}
}

func TestLevelOf(t *testing.T) {
	h := MustHierarchy(geom.NewSquareGrid(8, 8))
	cases := map[geom.Coord]int{
		{Col: 0, Row: 0}: 3, // the root leads at every level
		{Col: 4, Row: 0}: 2,
		{Col: 2, Row: 2}: 1,
		{Col: 1, Row: 0}: 0,
		{Col: 7, Row: 7}: 0,
		{Col: 4, Row: 4}: 2,
		{Col: 6, Row: 4}: 1,
	}
	// c leads at every level up to its own and at none above it.
	for c, top := range cases {
		for level := 0; level <= h.Levels; level++ {
			if got := h.IsLeader(c, level); got != (level <= top) {
				t.Errorf("IsLeader(%v, %d) = %v, want %v", c, level, got, level <= top)
			}
		}
	}
}

func TestFollowers(t *testing.T) {
	h := MustHierarchy(grid4())
	f := h.Followers(geom.Coord{Col: 2, Row: 2}, 1)
	if len(f) != 4 {
		t.Fatalf("level-1 group size = %d, want 4", len(f))
	}
	want := []geom.Coord{{Col: 2, Row: 2}, {Col: 3, Row: 2}, {Col: 2, Row: 3}, {Col: 3, Row: 3}}
	for i := range want {
		if f[i] != want[i] {
			t.Errorf("follower[%d] = %v, want %v", i, f[i], want[i])
		}
	}
	all := h.Followers(h.Root(), 2)
	if len(all) != 16 {
		t.Errorf("top-level group size = %d, want 16", len(all))
	}
	defer func() {
		if recover() == nil {
			t.Error("Followers of a non-leader should panic")
		}
	}()
	h.Followers(geom.Coord{Col: 1, Row: 0}, 1)
}

func TestFollowersPartitionGrid(t *testing.T) {
	h := MustHierarchy(geom.NewSquareGrid(8, 8))
	for level := 0; level <= h.Levels; level++ {
		seen := map[geom.Coord]int{}
		for _, l := range h.Leaders(level) {
			for _, f := range h.Followers(l, level) {
				seen[f]++
			}
		}
		if len(seen) != h.Grid.N() {
			t.Errorf("level %d: %d cells covered, want %d", level, len(seen), h.Grid.N())
		}
		for c, n := range seen {
			if n != 1 {
				t.Errorf("level %d: cell %v in %d groups", level, c, n)
			}
		}
	}
}

func TestChildrenQuadrantOrder(t *testing.T) {
	h := MustHierarchy(grid4())
	ch := h.Children(h.Root(), 2)
	want := []geom.Coord{{Col: 0, Row: 0}, {Col: 2, Row: 0}, {Col: 0, Row: 2}, {Col: 2, Row: 2}}
	for i := range want {
		if ch[i] != want[i] {
			t.Errorf("child[%d] = %v, want %v (NW,NE,SW,SE)", i, ch[i], want[i])
		}
	}
	// The NW child is the parent itself — the self-message of Figure 4.
	if ch[0] != h.Root() {
		t.Error("NW child should be the leader itself")
	}
	for name, f := range map[string]func(){
		"level 0":    func() { h.Children(h.Root(), 0) },
		"non-leader": func() { h.Children(geom.Coord{Col: 1, Row: 0}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Children %s should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestChildrenAreLowerLevelLeaders(t *testing.T) {
	h := MustHierarchy(geom.NewSquareGrid(16, 16))
	for level := 1; level <= h.Levels; level++ {
		for _, l := range h.Leaders(level) {
			for _, ch := range h.Children(l, level) {
				if !h.IsLeader(ch, level-1) {
					t.Errorf("child %v of level-%d leader %v is not a level-%d leader", ch, level, l, level-1)
				}
				if h.LeaderAt(ch, level) != l {
					t.Errorf("child %v does not belong to parent %v", ch, l)
				}
			}
		}
	}
}

func TestFollowerDistance(t *testing.T) {
	h := MustHierarchy(geom.NewSquareGrid(8, 8))
	if d := h.FollowerDistance(geom.Coord{Col: 3, Row: 3}, 2); d != 6 {
		t.Errorf("distance = %d, want 6", d)
	}
	if d := h.FollowerDistance(geom.Coord{Col: 0, Row: 0}, 3); d != 0 {
		t.Error("leader's own distance should be 0")
	}
	for level := 0; level <= h.Levels; level++ {
		want := 2 * ((1 << level) - 1)
		if got := h.MaxFollowerDistance(level); got != want {
			t.Errorf("MaxFollowerDistance(%d) = %d, want %d", level, got, want)
		}
		// No follower exceeds the bound; some follower attains it.
		attained := false
		for _, l := range h.Leaders(level) {
			for _, f := range h.Followers(l, level) {
				d := h.FollowerDistance(f, level)
				if d > want {
					t.Errorf("level %d: follower %v at distance %d > bound %d", level, f, d, want)
				}
				if d == want {
					attained = true
				}
			}
		}
		if !attained {
			t.Errorf("level %d: bound %d never attained", level, want)
		}
	}
}

func TestBlockSizeAndLevelChecks(t *testing.T) {
	h := MustHierarchy(grid4())
	if h.BlockSize(0) != 1 || h.BlockSize(1) != 2 || h.BlockSize(2) != 4 {
		t.Error("block sizes wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range level should panic")
		}
	}()
	h.BlockSize(3)
}

func TestMortonRoundTripAndFigure3(t *testing.T) {
	// Figure 3's Z-order labeling of the 4x4 grid.
	want := map[geom.Coord]int{
		{Col: 0, Row: 0}: 0, {Col: 1, Row: 0}: 1, {Col: 0, Row: 1}: 2, {Col: 1, Row: 1}: 3,
		{Col: 2, Row: 0}: 4, {Col: 3, Row: 0}: 5, {Col: 2, Row: 1}: 6, {Col: 3, Row: 1}: 7,
		{Col: 0, Row: 2}: 8, {Col: 1, Row: 2}: 9, {Col: 0, Row: 3}: 10, {Col: 1, Row: 3}: 11,
		{Col: 2, Row: 2}: 12, {Col: 3, Row: 2}: 13, {Col: 2, Row: 3}: 14, {Col: 3, Row: 3}: 15,
	}
	for c, idx := range want {
		if got := geom.MortonIndex(c); got != idx {
			t.Errorf("MortonIndex(%v) = %d, want %d", c, got, idx)
		}
		if got := geom.MortonCoord(idx); got != c {
			t.Errorf("MortonCoord(%d) = %v, want %v", idx, got, c)
		}
	}
	for idx := 0; idx < 4096; idx++ {
		if geom.MortonIndex(geom.MortonCoord(idx)) != idx {
			t.Fatalf("Morton round trip failed at %d", idx)
		}
	}
}
