package dynamic

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/join"
)

// testConfig returns a BBST-backed store config over half-extent l.
func testConfig(l float64, seed uint64) Config {
	return Config{
		BuildBase: func(R, S []geom.Point) (*core.BBSTSampler, error) {
			return core.NewBBST(R, S, core.Config{HalfExtent: l, Seed: seed})
		},
		Seed: seed,
	}
}

// applyFunc applies one update to a store, by one of the two routes an
// update can take into the index.
type applyFunc func(t *testing.T, st *Store, u Update)

// inBothModes runs fn once with updates applied directly to the
// in-place index and once with each update landing while a background
// rebuild is building, so the rebuild's swap has to fold it into the
// fresh base — path-agnostic store properties (uniformity,
// determinism, estimation, size accounting) are asserted on both
// routes.
func inBothModes(t *testing.T, fn func(t *testing.T, apply applyFunc)) {
	t.Run("inplace", func(t *testing.T) {
		fn(t, func(t *testing.T, st *Store, u Update) {
			t.Helper()
			if _, err := st.Apply(context.Background(), u); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("folded", func(t *testing.T) { fn(t, foldDuringRebuild) })
}

// foldDuringRebuild applies u while a background rebuild of st's
// current view is building, and waits for the rebuild's swap, which
// must fold u into the new base.
func foldDuringRebuild(t *testing.T, st *Store, u Update) {
	t.Helper()
	ctx := context.Background()
	var applyErr error
	st.testHookBuilt = func() { _, applyErr = st.Apply(ctx, u) }
	st.mu.Lock()
	st.startRebuildLocked(st.view.Load())
	st.mu.Unlock()
	if err := st.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	st.testHookBuilt = nil
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if err := st.LastRebuildErr(); err != nil {
		t.Fatal(err)
	}
	if v := st.view.Load(); v.mut == nil || !v.owned {
		t.Fatal("rebuild raced by an Apply did not swap in an owned in-place view")
	}
}

// testData generates the unit-test point sets: small enough to brute
// force, dense enough for a meaningful join.
func testData(t *testing.T) (R, S []geom.Point) {
	t.Helper()
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	return gen(60, 11), gen(60, 12)
}

// joinSet enumerates the exact current join as an ID-pair set.
func joinSet(R, S []geom.Point, l float64) map[[2]int32]bool {
	out := map[[2]int32]bool{}
	join.BruteForce(R, S, l, func(r, s geom.Point) bool {
		out[[2]int32{r.ID, s.ID}] = true
		return true
	})
	return out
}

// currentSets mirrors a store's op sequence on plain slices — the
// test-side model of what the store should be serving.
type currentSets struct {
	R, S []geom.Point
}

func (c *currentSets) apply(u Update) {
	c.R = modelApply(c.R, u.InsertR, u.DeleteR)
	c.S = modelApply(c.S, u.InsertS, u.DeleteS)
}

func modelApply(pts, add []geom.Point, del []int32) []geom.Point {
	dead := map[int32]bool{}
	for _, id := range del {
		dead[id] = true
	}
	out := pts[:0:0]
	for _, p := range pts {
		if !dead[p.ID] {
			out = append(out, p)
		}
	}
	return append(out, add...)
}

// drawAll draws t samples through the Source surface.
func drawAll(t *testing.T, st *Store, n int) []geom.Pair {
	t.Helper()
	res, err := st.Draw(context.Background(), engine.Request{T: n})
	if err != nil {
		t.Fatalf("draw %d: %v", n, err)
	}
	return res.Pairs
}

// checkSupport asserts every sampled pair is in the model join.
func checkSupport(t *testing.T, pairs []geom.Pair, jset map[[2]int32]bool) {
	t.Helper()
	for _, p := range pairs {
		if !jset[[2]int32{p.R.ID, p.S.ID}] {
			t.Fatalf("sampled pair (%d,%d) not in the current join", p.R.ID, p.S.ID)
		}
	}
}

func TestStoreAppliesAndGenerations(t *testing.T) {
	R, S := testData(t)
	l := 1000.0
	cfg := testConfig(l, 7)
	cfg.DisableAutoRebuild = true
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != 0 {
		t.Fatalf("fresh store at generation %d", st.Generation())
	}
	model := &currentSets{R: R, S: S}
	ctx := context.Background()

	// An empty update is a generation probe, not a bump.
	if gen, err := st.Apply(ctx, Update{}); err != nil || gen != 0 {
		t.Fatalf("empty update: gen %d, err %v", gen, err)
	}

	u1 := Update{
		InsertR: []geom.Point{{ID: 500, X: R[0].X + 10, Y: R[0].Y - 10}, {ID: 501, X: S[3].X, Y: S[3].Y}},
		InsertS: []geom.Point{{ID: 600, X: R[1].X + 5, Y: R[1].Y + 5}},
		DeleteR: []int32{R[2].ID, R[4].ID},
		DeleteS: []int32{S[0].ID},
	}
	gen, err := st.Apply(ctx, u1)
	if err != nil || gen != 1 {
		t.Fatalf("apply 1: gen %d, err %v", gen, err)
	}
	model.apply(u1)
	jset := joinSet(model.R, model.S, l)
	pairs := drawAll(t, st, 4000)
	checkSupport(t, pairs, jset)

	// Delete an inserted point and a base point in the same batch;
	// re-insert a deleted base ID as a new point.
	u2 := Update{
		InsertR: []geom.Point{{ID: R[2].ID, X: R[7].X, Y: R[7].Y}},
		DeleteR: []int32{500, R[5].ID},
	}
	if gen, err = st.Apply(ctx, u2); err != nil || gen != 2 {
		t.Fatalf("apply 2: gen %d, err %v", gen, err)
	}
	model.apply(u2)
	jset = joinSet(model.R, model.S, l)
	pairs = drawAll(t, st, 4000)
	checkSupport(t, pairs, jset)
	for _, p := range pairs {
		if p.R.ID == 500 {
			t.Fatal("deleted inserted point 500 sampled")
		}
	}

	// Compact folds the deltas into a fresh base at a bumped
	// generation, with identical serving behavior.
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if g := st.Generation(); g != 3 {
		t.Fatalf("post-compact generation %d, want 3", g)
	}
	if st.InPlace() {
		t.Fatal("post-compact view is in place, want a frozen base")
	}
	checkSupport(t, drawAll(t, st, 4000), jset)
}

// TestStoreUniformityAfterUpdates: sampling must stay uniform over
// the live join after mutations — chi-square against the brute-force
// join of the current point sets, on both update routes, with the
// skew hatch pinned off.
func TestStoreUniformityAfterUpdates(t *testing.T) {
	inBothModes(t, testStoreUniformityAfterUpdates)
}

func testStoreUniformityAfterUpdates(t *testing.T, apply applyFunc) {
	R, S := testData(t)
	l := 1000.0
	cfg := testConfig(l, 3)
	cfg.DisableAutoRebuild = true
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model := &currentSets{R: R, S: S}
	u := Update{
		DeleteR: []int32{R[0].ID, R[9].ID, R[17].ID},
		DeleteS: []int32{S[4].ID, S[31].ID},
	}
	// Clustered inserts so the inserted points carry real mass.
	for i := 0; i < 10; i++ {
		u.InsertR = append(u.InsertR, geom.Point{ID: int32(700 + i), X: S[i].X + 20, Y: S[i].Y - 20})
		u.InsertS = append(u.InsertS, geom.Point{ID: int32(800 + i), X: R[i+20].X - 15, Y: R[i+20].Y + 15})
	}
	apply(t, st, u)
	model.apply(u)
	jset := joinSet(model.R, model.S, l)
	if len(jset) < 50 {
		t.Fatalf("test setup: |J| = %d too small for a chi-square", len(jset))
	}
	// The inserts must actually participate: some join pair touches an
	// inserted point.
	insertedPairs := 0
	for k := range jset {
		if k[0] >= 700 || k[1] >= 800 {
			insertedPairs++
		}
	}
	if insertedPairs == 0 {
		t.Fatal("test setup: no join pair touches an inserted point")
	}

	const draws = 200_000
	counts := map[[2]int32]int{}
	err = st.DrawFunc(context.Background(), engine.Request{T: draws}, func(batch []geom.Pair) error {
		for _, p := range batch {
			k := [2]int32{p.R.ID, p.S.ID}
			if !jset[k] {
				t.Fatalf("sampled pair %v not in the current join", k)
			}
			counts[k]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(draws) / float64(len(jset))
	chi2 := 0.0
	for k := range jset {
		d := float64(counts[k]) - expected
		chi2 += d * d / expected
	}
	dof := float64(len(jset) - 1)
	limit := dof + 4*math.Sqrt(2*dof) + 10
	if chi2 > limit {
		t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
	}
}

// TestStoreDeterminismWithinGeneration: equal request seeds draw
// identical samples within one generation, and two replicas fed the
// same op sequence agree byte for byte — the property that keeps a
// broadcast fleet's shards interchangeable.
func TestStoreDeterminismWithinGeneration(t *testing.T) {
	inBothModes(t, testStoreDeterminismWithinGeneration)
}

func testStoreDeterminismWithinGeneration(t *testing.T, apply applyFunc) {
	R, S := testData(t)
	l := 1000.0
	mk := func() *Store {
		cfg := testConfig(l, 5)
		cfg.DisableAutoRebuild = true
		st, err := NewStore(R, S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := mk(), mk()
	u := Update{
		InsertR: []geom.Point{{ID: 900, X: S[2].X, Y: S[2].Y}},
		InsertS: []geom.Point{{ID: 901, X: R[2].X, Y: R[2].Y}},
		DeleteR: []int32{R[1].ID},
	}
	ctx := context.Background()
	apply(t, a, u)
	apply(t, b, u)
	p1, err := a.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved unseeded traffic must not perturb seeded draws.
	if _, err := a.Draw(ctx, engine.Request{T: 333}); err != nil {
		t.Fatal(err)
	}
	p2, err := a.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p3, err := b.Draw(ctx, engine.Request{T: 1500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p1.Pairs {
		if p1.Pairs[i] != p2.Pairs[i] {
			t.Fatalf("equal seeds diverged at %d within one store", i)
		}
		if p1.Pairs[i] != p3.Pairs[i] {
			t.Fatalf("replica stores diverged at %d", i)
		}
	}
}

// TestStoreEmptyLifecycle: a store may start empty, answer
// ErrEmptyJoin (after request validation), become non-empty through
// Apply — absorbed in place from the first insert — and empty again
// through deletes. A store whose sides are non-empty but whose join is
// empty behaves the same way.
func TestStoreEmptyLifecycle(t *testing.T) {
	l := 100.0
	cfg := testConfig(l, 1)
	cfg.MaxT = 1000
	cfg.DisableAutoRebuild = true
	st, err := NewStore(nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := st.Draw(ctx, engine.Request{T: 5}); !errors.Is(err, core.ErrEmptyJoin) {
		t.Fatalf("empty store draw: %v, want ErrEmptyJoin", err)
	}
	// Validation still precedes the empty answer.
	if _, err := st.Draw(ctx, engine.Request{T: -1}); !errors.Is(err, engine.ErrBadRequest) {
		t.Fatalf("bad request on empty store: %v", err)
	}
	if _, err := st.Draw(ctx, engine.Request{T: 2000}); !errors.Is(err, engine.ErrSampleCap) {
		t.Fatalf("over-cap on empty store: %v", err)
	}
	u := Update{
		InsertR: []geom.Point{{ID: 1, X: 50, Y: 50}},
		InsertS: []geom.Point{{ID: 2, X: 60, Y: 60}},
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if !st.InPlace() {
		t.Error("InPlace = false after the first insert into an empty store")
	}
	if got := st.InPlaceOps(); got != uint64(u.Ops()) {
		t.Errorf("InPlaceOps = %d after the first insert, want %d", got, u.Ops())
	}
	res, err := st.Draw(ctx, engine.Request{T: 10})
	if err != nil || len(res.Pairs) != 10 {
		t.Fatalf("draw after insert: %d pairs, %v", len(res.Pairs), err)
	}
	for _, p := range res.Pairs {
		if p.R.ID != 1 || p.S.ID != 2 {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	if _, err := st.Apply(ctx, Update{DeleteR: []int32{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Draw(ctx, engine.Request{T: 5}); !errors.Is(err, core.ErrEmptyJoin) {
		t.Fatalf("re-emptied store draw: %v, want ErrEmptyJoin", err)
	}

	t.Run("empty_join", func(t *testing.T) {
		// R and S clusters far apart: both sides are non-empty, the
		// join is empty.
		var R, S []geom.Point
		for i := 0; i < 20; i++ {
			R = append(R, geom.Point{ID: int32(i), X: float64(i * 7), Y: float64(i * 3)})
			S = append(S, geom.Point{ID: int32(100 + i), X: 50_000 + float64(i*5), Y: 50_000 - float64(i*2)})
		}
		st, err := NewStore(R, S, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Draw(ctx, engine.Request{T: 5}); !errors.Is(err, core.ErrEmptyJoin) {
			t.Fatalf("empty-join store draw: %v, want ErrEmptyJoin", err)
		}
		model := &currentSets{R: R, S: S}
		u := Update{
			InsertR: []geom.Point{{ID: 500, X: S[3].X + 10, Y: S[3].Y - 10}, {ID: 501, X: S[8].X, Y: S[8].Y + 20}},
			InsertS: []geom.Point{{ID: 600, X: R[5].X - 5, Y: R[5].Y + 5}},
			DeleteS: []int32{S[8].ID},
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
		model.apply(u)
		if !st.InPlace() {
			t.Error("InPlace = false after inserting into an empty-join store")
		}
		jset := joinSet(model.R, model.S, l)
		if len(jset) < 2 {
			t.Fatalf("test setup: |J| = %d after inserts, want >= 2", len(jset))
		}
		pairs := drawAll(t, st, 1000)
		checkSupport(t, pairs, jset)
		seen := map[[2]int32]bool{}
		for _, p := range pairs {
			seen[[2]int32{p.R.ID, p.S.ID}] = true
		}
		if len(seen) != len(jset) {
			t.Errorf("drew %d distinct pairs of the %d live ones", len(seen), len(jset))
		}
	})
}

// TestStoreEstimateJoinSize: the acceptance-rate estimator tracks the
// live join size through updates.
func TestStoreEstimateJoinSize(t *testing.T) {
	inBothModes(t, testStoreEstimateJoinSize)
}

func testStoreEstimateJoinSize(t *testing.T, apply applyFunc) {
	R, S := testData(t)
	l := 1000.0
	cfg := testConfig(l, 13)
	cfg.DisableAutoRebuild = true
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := Update{DeleteR: []int32{R[0].ID, R[1].ID, R[2].ID}}
	for i := 0; i < 6; i++ {
		u.InsertS = append(u.InsertS, geom.Point{ID: int32(860 + i), X: R[10+i].X, Y: R[10+i].Y})
	}
	apply(t, st, u)
	model := &currentSets{R: R, S: S}
	model.apply(u)
	exact := float64(len(joinSet(model.R, model.S, l)))
	est, err := st.EstimateJoinSize(60_000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 0.15*exact {
		t.Fatalf("join size estimate %.1f, exact %.0f", est, exact)
	}
}

// TestStoreRejectsBadUpdates: non-finite inserts are refused with
// ErrBadRequest before any state changes.
func TestStoreRejectsBadUpdates(t *testing.T) {
	R, S := testData(t)
	cfg := testConfig(1000, 1)
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := Update{InsertR: []geom.Point{{ID: 1, X: math.NaN(), Y: 0}}}
	if _, err := st.Apply(context.Background(), bad); !errors.Is(err, engine.ErrBadRequest) {
		t.Fatalf("NaN insert: %v, want ErrBadRequest", err)
	}
	if st.Generation() != 0 {
		t.Fatal("rejected update bumped the generation")
	}
}
