package core

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/rng"
)

func mustUnfreeze(t *testing.T, R, S []geom.Point, cfg Config) *Mutable {
	t.Helper()
	s, err := NewBBST(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUnfreezeMatchesFrozen(t *testing.T) {
	r := rng.New(1)
	l := 6.0
	R := randomPoints(r, 120, 100, 0)
	S := randomPoints(r, 150, 100, 10000)
	s, err := NewBBST(R, S, Config{HalfExtent: l, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Count(); err != nil {
		t.Fatal(err)
	}
	m, err := s.Unfreeze()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Stats().MuSum, s.Stats().MuSum; got != want {
		t.Fatalf("MuSum after unfreeze %g, frozen %g", got, want)
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatalf("invariants after unfreeze: %v", err)
	}
	// The frozen sampler must keep answering after mutations of the
	// unfrozen line (cells are cloned copy-on-write before edits).
	nm, err := m.Apply(MutOps{DelS: []int32{S[0].ID, S[1].ID}, InsS: randomPoints(r, 5, 100, 20000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Index().CheckInvariants(); err != nil {
		t.Fatalf("invariants after apply: %v", err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("frozen sampler broken by unfrozen mutations: %v", err)
	}
}

// drawLive verifies n draws all land in the exact live join and
// returns the per-pair counts.
func drawLive(t *testing.T, m *Mutable, R, S []geom.Point, l float64, n int) map[string]int {
	t.Helper()
	livePairs := make(map[string]bool)
	join.BruteForce(R, S, l, func(r, s geom.Point) bool {
		livePairs[pairID(geom.Pair{R: r, S: s})] = true
		return true
	})
	if len(livePairs) == 0 {
		t.Fatal("test setup: empty live join")
	}
	counts := make(map[string]int, len(livePairs))
	for i := 0; i < n; i++ {
		p, err := m.Next()
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		id := pairID(p)
		if !livePairs[id] {
			t.Fatalf("draw %d: pair %s is not in the live join", i, id)
		}
		counts[id]++
	}
	return counts
}

func TestMutableChurnVsOracle(t *testing.T) {
	r := rng.New(2)
	l := 7.0
	R := randomPoints(r, 100, 100, 0)
	S := randomPoints(r, 120, 100, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 3})

	liveR := append([]geom.Point(nil), R...)
	liveS := append([]geom.Point(nil), S...)
	nextID := int32(50000)
	for batch := 0; batch < 60; batch++ {
		var ops MutOps
		// Deletes: up to 3 per side, drawn from the live sets.
		for k := 0; k < 3 && len(liveR) > 20; k++ {
			i := r.Intn(len(liveR))
			ops.DelR = append(ops.DelR, liveR[i].ID)
			liveR = append(liveR[:i], liveR[i+1:]...)
		}
		for k := 0; k < 3 && len(liveS) > 20; k++ {
			i := r.Intn(len(liveS))
			ops.DelS = append(ops.DelS, liveS[i].ID)
			liveS = append(liveS[:i], liveS[i+1:]...)
		}
		// Inserts: up to 4 per side.
		for k := 0; k < 2+r.Intn(3); k++ {
			p := geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100), ID: nextID}
			nextID++
			ops.InsR = append(ops.InsR, p)
			liveR = append(liveR, p)
		}
		for k := 0; k < 2+r.Intn(3); k++ {
			p := geom.Point{X: r.Range(0, 100), Y: r.Range(0, 100), ID: nextID}
			nextID++
			ops.InsS = append(ops.InsS, p)
			liveS = append(liveS, p)
		}
		nm, err := m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		m = nm
		if batch%10 == 0 {
			if err := m.Index().CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nr, ns := m.Index().NumR(), m.Index().NumS(); nr != len(liveR) || ns != len(liveS) {
		t.Fatalf("live counts (%d,%d), oracle (%d,%d)", nr, ns, len(liveR), len(liveS))
	}
	// Materialized sets must match the oracle as multisets.
	gotR, gotS := m.LivePoints()
	if len(gotR) != len(liveR) || len(gotS) != len(liveS) {
		t.Fatalf("LivePoints (%d,%d), oracle (%d,%d)", len(gotR), len(gotS), len(liveR), len(liveS))
	}
	wantR := make(map[geom.Point]int)
	for _, p := range liveR {
		wantR[p]++
	}
	for _, p := range gotR {
		wantR[p]--
		if wantR[p] < 0 {
			t.Fatalf("unexpected live R point %+v", p)
		}
	}
	// MuSum must upper-bound the exact live join size.
	jsize := float64(join.Size(liveR, liveS, l))
	if m.Stats().MuSum < jsize {
		t.Fatalf("MuSum %g below exact join size %g", m.Stats().MuSum, jsize)
	}
	// Every draw lands in the live join, and coverage is broad.
	m.Reseed(77)
	counts := drawLive(t, m, liveR, liveS, l, 30000)
	jint := int(jsize)
	if len(counts) < jint*7/10 {
		t.Fatalf("draws covered %d of %d live pairs", len(counts), jint)
	}
}

func TestMutableUniformityAfterChurn(t *testing.T) {
	r := rng.New(4)
	l := 10.0
	R := randomPoints(r, 40, 60, 0)
	S := randomPoints(r, 50, 60, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 8})
	liveR, liveS := append([]geom.Point(nil), R...), append([]geom.Point(nil), S...)
	nextID := int32(90000)
	for batch := 0; batch < 40; batch++ {
		var ops MutOps
		if len(liveS) > 15 {
			i := r.Intn(len(liveS))
			ops.DelS = append(ops.DelS, liveS[i].ID)
			liveS = append(liveS[:i], liveS[i+1:]...)
		}
		if len(liveR) > 15 {
			i := r.Intn(len(liveR))
			ops.DelR = append(ops.DelR, liveR[i].ID)
			liveR = append(liveR[:i], liveR[i+1:]...)
		}
		pR := geom.Point{X: r.Range(0, 60), Y: r.Range(0, 60), ID: nextID}
		pS := geom.Point{X: r.Range(0, 60), Y: r.Range(0, 60), ID: nextID + 1}
		nextID += 2
		ops.InsR = append(ops.InsR, pR)
		ops.InsS = append(ops.InsS, pS)
		liveR = append(liveR, pR)
		liveS = append(liveS, pS)
		var err error
		m, err = m.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	jsize := int(join.Size(liveR, liveS, l))
	if jsize < 50 {
		t.Skipf("join too small for a chi-square (%d pairs)", jsize)
	}
	draws := 200 * jsize
	if draws > 400000 {
		draws = 400000
	}
	m.Reseed(123)
	counts := drawLive(t, m, liveR, liveS, l, draws)
	expected := float64(draws) / float64(jsize)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// Pairs never drawn contribute expected each.
	chi2 += float64(jsize-len(counts)) * expected
	dof := float64(jsize - 1)
	if chi2 > 2*dof+100 {
		t.Fatalf("chi2 %.1f over %0.f dof — draws not uniform after churn", chi2, dof)
	}
}

func TestMutableEqualSeedDeterminism(t *testing.T) {
	build := func() *Mutable {
		r := rng.New(5)
		R := randomPoints(r, 80, 80, 0)
		S := randomPoints(r, 90, 80, 10000)
		m := mustUnfreeze(t, R, S, Config{HalfExtent: 8, Seed: 21})
		for batch := 0; batch < 20; batch++ {
			ops := MutOps{
				InsR: randomPoints(r, 2, 80, 20000+int32(batch)*10),
				InsS: randomPoints(r, 2, 80, 30000+int32(batch)*10),
				DelR: []int32{int32(batch)},
				DelS: []int32{10000 + int32(batch)},
			}
			var err error
			m, err = m.Apply(ops)
			if err != nil {
				t.Fatal(err)
			}
		}
		m.Reseed(99)
		return m
	}
	a, b := build(), build()
	for i := 0; i < 500; i++ {
		pa, errA := a.Next()
		pb, errB := b.Next()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("draw %d: error mismatch %v vs %v", i, errA, errB)
		}
		if pa != pb {
			t.Fatalf("draw %d: %+v vs %+v — equal seeds diverged", i, pa, pb)
		}
	}
}

func TestMutableVersionIsolation(t *testing.T) {
	r := rng.New(6)
	l := 8.0
	R := randomPoints(r, 70, 70, 0)
	S := randomPoints(r, 80, 70, 10000)
	old := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 31})
	oldMu := old.Stats().MuSum

	cur := old
	for batch := 0; batch < 30; batch++ {
		var err error
		cur, err = cur.Apply(MutOps{
			InsS: randomPoints(r, 3, 70, 40000+int32(batch)*10),
			DelS: []int32{10000 + int32(batch)},
			InsR: randomPoints(r, 2, 70, 50000+int32(batch)*10),
			DelR: []int32{int32(batch)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The old version still validates and still answers only from the
	// ORIGINAL point sets.
	if err := old.Index().CheckInvariants(); err != nil {
		t.Fatalf("old version corrupted by later applies: %v", err)
	}
	if got := old.Stats().MuSum; got != oldMu {
		t.Fatalf("old version MuSum drifted: %g vs %g", got, oldMu)
	}
	old.Reseed(7)
	drawLive(t, old, R, S, l, 3000)
}

func TestMutableDrainAndRefill(t *testing.T) {
	r := rng.New(7)
	R := randomPoints(r, 30, 40, 0)
	S := randomPoints(r, 30, 40, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 20, Seed: 1})
	// Drain R entirely.
	var ops MutOps
	for _, p := range R {
		ops.DelR = append(ops.DelR, p.ID)
	}
	m, err := m.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().MuSum != 0 {
		t.Fatalf("MuSum %g after draining R", m.Stats().MuSum)
	}
	if _, err := m.Next(); !errors.Is(err, ErrEmptyJoin) {
		t.Fatalf("Next on drained index: %v", err)
	}
	// Refill: slots must be reused, not appended.
	before := m.Index().slots.Len()
	m, err = m.Apply(MutOps{InsR: randomPoints(r, len(R), 40, 60000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Index().slots.Len(); got != before {
		t.Fatalf("slot array grew %d -> %d despite %d free slots", before, got, len(R))
	}
	if err := m.Index().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Reseed(5)
	if _, err := m.Next(); err != nil {
		t.Fatalf("draw after refill: %v", err)
	}
}

func TestMutableNeedsRebase(t *testing.T) {
	r := rng.New(8)
	R := randomPoints(r, 40, 50, 0)
	S := randomPoints(r, 40, 50, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 2})
	if m.NeedsRebase() {
		t.Fatal("fresh index claims rebase")
	}
	// Balanced churn never trips the hatch.
	for batch := 0; batch < 20; batch++ {
		var err error
		m, err = m.Apply(MutOps{
			InsS: randomPoints(r, 1, 50, 70000+int32(batch)),
			DelS: []int32{10000 + int32(batch)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if m.NeedsRebase() {
			t.Fatalf("balanced churn tripped the hatch at batch %d", batch)
		}
	}
	// 8x growth does.
	var err error
	m, err = m.Apply(MutOps{InsS: randomPoints(r, 40*rebaseDriftFactor, 50, 80000)})
	if err != nil {
		t.Fatal(err)
	}
	if !m.NeedsRebase() {
		t.Fatal("8x S growth did not trip the hatch")
	}
}

func TestMutableCloneIndependence(t *testing.T) {
	r := rng.New(9)
	R := randomPoints(r, 60, 60, 0)
	S := randomPoints(r, 60, 60, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: 10, Seed: 13})
	c1, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// Clones share structures but draw independent streams.
	p1, err1 := c1.Next()
	p2, err2 := c2.Next()
	if err1 != nil || err2 != nil {
		t.Fatalf("clone draws: %v, %v", err1, err2)
	}
	_ = p1
	_ = p2
	// Reseeding both identically makes them agree.
	c1.(*Mutable).Reseed(42)
	c2.(*Mutable).Reseed(42)
	for i := 0; i < 100; i++ {
		q1, e1 := c1.Next()
		q2, e2 := c2.Next()
		if e1 != nil || e2 != nil || q1 != q2 {
			t.Fatalf("reseeded clones diverged at %d", i)
		}
	}
}

func TestPvecBasics(t *testing.T) {
	r := rng.New(10)
	var versions []*pvec
	var oracles [][]geom.Point
	v := &pvec{}
	var oracle []geom.Point
	for i := 0; i < 300; i++ {
		if i%3 == 2 && v.Len() > 0 {
			j := r.Intn(v.Len())
			pt := geom.Point{X: float64(i), Y: 1, ID: int32(i)}
			v = v.Set(j, pt)
			oracle[j] = pt
		} else {
			pt := geom.Point{X: float64(i), ID: int32(i)}
			v = v.Append(pt)
			oracle = append(oracle, pt)
		}
		if i%50 == 0 {
			versions = append(versions, v)
			oracles = append(oracles, append([]geom.Point(nil), oracle...))
		}
	}
	check := func(v *pvec, want []geom.Point) {
		t.Helper()
		if v.Len() != len(want) {
			t.Fatalf("len %d, want %d", v.Len(), len(want))
		}
		for i, w := range want {
			if got := v.Get(i); got != w {
				t.Fatalf("slot %d: %+v, want %+v", i, got, w)
			}
		}
	}
	check(v, oracle)
	for i := range versions {
		check(versions[i], oracles[i])
	}
	// Bulk build agrees with append-built.
	bulk := newPvec(oracle)
	check(bulk, oracle)
}

// TestUnfreezeEmptyJoin: a sampler whose join is provably empty — far
// apart sides, or an empty side — still unfreezes, into an index with
// no mass that gains it through ApplyOps.
func TestUnfreezeEmptyJoin(t *testing.T) {
	r := rng.New(11)
	l := 5.0
	cases := map[string][2][]geom.Point{
		"disjoint": {randomPoints(r, 40, 50, 0), shift(randomPoints(r, 40, 50, 10000), 1000)},
		"empty":    {nil, nil},
	}
	for name, sides := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewBBST(sides[0], sides[1], Config{HalfExtent: l, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Count(); !errors.Is(err, ErrEmptyJoin) {
				t.Fatalf("Count = %v, want ErrEmptyJoin", err)
			}
			m, err := s.Unfreeze()
			if err != nil {
				t.Fatal(err)
			}
			if m.Stats().MuSum != 0 {
				t.Fatalf("MuSum %g on an empty join", m.Stats().MuSum)
			}
			if err := m.Index().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Next(); !errors.Is(err, ErrEmptyJoin) {
				t.Fatalf("Next on an empty join: %v", err)
			}
			ins := MutOps{
				InsR: []geom.Point{{ID: 70000, X: 1, Y: 1}},
				InsS: []geom.Point{{ID: 80000, X: 2, Y: 3}},
			}
			if m, err = m.Apply(ins); err != nil {
				t.Fatal(err)
			}
			if err := m.Index().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			p, err := m.Next()
			if err != nil {
				t.Fatalf("draw after inserts: %v", err)
			}
			if !geom.Window(p.R, l).Contains(p.S) {
				t.Fatalf("drew %v outside the window", p)
			}
		})
	}
}

// TestMutableSameCellSlotReuse moves one R point around inside a
// single cell, batch after batch: each delete frees the slot the next
// insert reuses, in the cell whose reverse list still holds the slot's
// old entry. The slot must be listed once, not once per move.
func TestMutableSameCellSlotReuse(t *testing.T) {
	r := rng.New(12)
	l := 50.0
	R := randomPoints(r, 20, 40, 0)
	S := randomPoints(r, 20, 40, 10000)
	m := mustUnfreeze(t, R, S, Config{HalfExtent: l, Seed: 2})
	id := R[0].ID
	for i := 0; i < 50; i++ {
		pt := geom.Point{ID: id, X: r.Range(0, 40), Y: r.Range(0, 40)}
		var err error
		if m, err = m.Apply(MutOps{DelR: []int32{id}, InsR: []geom.Point{pt}}); err != nil {
			t.Fatal(err)
		}
		if err := m.Index().CheckInvariants(); err != nil {
			t.Fatalf("move %d: %v", i, err)
		}
	}
	rl, _ := m.Index().rcells.Get(grid.KeyFor(R[1].X, R[1].Y, l))
	if len(rl.slots) > 2*int(rl.live) {
		t.Fatalf("reverse list holds %d entries for %d live slots", len(rl.slots), rl.live)
	}
}

// shift offsets every point by d on both axes.
func shift(pts []geom.Point, d float64) []geom.Point {
	for i := range pts {
		pts[i].X += d
		pts[i].Y += d
	}
	return pts
}
