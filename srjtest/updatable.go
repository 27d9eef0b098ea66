package srjtest

// The update-aware half of the conformance harness. An updatable
// source is a Source whose dataset accepts insert/delete batches:
// the local srj.Store, a Client bound to a key on a server with
// dynamic stores, and a Router bound to the same key over a
// broadcast fleet. The suite holds all of them to identical
// semantics: uniform over the join of the *current* point sets,
// never a deleted pair, reproducible seeds within one generation,
// and a generation bump visible after every non-empty Apply.
//
// Scripted updates keep the live point count near the base's, far
// inside the range the skew escape hatch tolerates, so no background
// rebuild races the subtests' draws — determinism within a generation
// is exactly what the contract promises, and a rebuild bumps the
// generation.

import (
	"context"
	"errors"
	"math"
	"testing"

	srj "repro"
)

// Updatable is a Source plus the mutation half of the contract.
// srj.Store implements it directly; the bound Client and Router
// implement it over POST /v1/update.
type Updatable interface {
	srj.Source
	// Apply absorbs one batch and returns the new dataset
	// generation; an empty batch probes the current generation
	// without bumping it.
	Apply(ctx context.Context, u srj.Update) (uint64, error)
}

// MakeUpdatable builds one Updatable implementation for a subtest
// over cfg's initial point sets. Register cleanup on t; the harness
// calls each constructor inside its own subtest.
type MakeUpdatable func(t *testing.T, cfg Config) Updatable

// RestartUpdatable closes src and reopens the same underlying dataset
// from its durable state — e.g. shutting a server down and booting a
// fresh one against the same data directory. The returned source must
// serve the state src had acknowledged, not the seed data.
type RestartUpdatable func(t *testing.T, src Updatable) Updatable

// UpdatableOption configures RunUpdatableConformance.
type UpdatableOption func(*updatableOptions)

type updatableOptions struct {
	restart RestartUpdatable
}

// WithRestart opts the implementation into the durability subtest:
// restart is called after a scripted mutation sequence, and the
// reopened source must still satisfy the mutation contract — deletes
// stay deleted, inserts stay present, updates keep applying.
func WithRestart(restart RestartUpdatable) UpdatableOption {
	return func(o *updatableOptions) { o.restart = restart }
}

// updateScript returns the suite's scripted mutation sequence over
// the Data() point sets, alongside the point sets it leaves current.
// The script exercises every op kind: base deletes on both sides,
// inserts that join (so every delta component carries mass), a
// delete of a previously inserted point, and a re-insert of a
// deleted base ID.
func updateScript(R, S []srj.Point, l float64) (script []srj.Update, curR, curS []srj.Point) {
	u1 := srj.Update{
		DeleteR: []int32{R[0].ID, R[7].ID},
		DeleteS: []int32{S[3].ID},
	}
	for i := 0; i < 5; i++ {
		u1.InsertR = append(u1.InsertR, srj.Point{ID: int32(9000 + i), X: S[2*i].X + l/5, Y: S[2*i].Y - l/7})
		u1.InsertS = append(u1.InsertS, srj.Point{ID: int32(9500 + i), X: R[3*i+1].X - l/6, Y: R[3*i+1].Y + l/8})
	}
	u2 := srj.Update{
		DeleteR: []int32{9001},                                    // drop a buffered insert
		InsertR: []srj.Point{{ID: R[0].ID, X: S[5].X, Y: S[5].Y}}, // re-insert a deleted base ID elsewhere
		DeleteS: []int32{S[11].ID},
	}
	script = []srj.Update{u1, u2}
	curR, curS = R, S
	for _, u := range script {
		curR = modelApply(curR, u.InsertR, u.DeleteR)
		curS = modelApply(curS, u.InsertS, u.DeleteS)
	}
	return script, curR, curS
}

// modelApply mirrors the Store's delete-then-insert batch semantics
// on a plain slice: the test-side model of the current point set.
func modelApply(pts, add []srj.Point, del []int32) []srj.Point {
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

// applyScript runs the script, asserting the generation bumps after
// every batch.
func applyScript(t *testing.T, src Updatable, script []srj.Update) {
	t.Helper()
	ctx := context.Background()
	gen, err := src.Apply(ctx, srj.Update{})
	if err != nil {
		t.Fatalf("generation probe: %v", err)
	}
	for i, u := range script {
		next, err := src.Apply(ctx, u)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if next <= gen {
			t.Fatalf("apply %d: generation %d did not advance past %d", i, next, gen)
		}
		gen = next
	}
}

// RunUpdatableConformance runs the update-aware suite against the
// sources make constructs: post-script uniformity (chi-square against
// the brute-force join of the current point sets), the
// no-deleted-pair guarantee, equal-seed determinism within one
// generation, and generation visibility. Implementations pass all of
// it or they are not an updatable Source.
func RunUpdatableConformance(t *testing.T, newUpdatable MakeUpdatable, opts ...UpdatableOption) {
	var o updatableOptions
	for _, opt := range opts {
		opt(&o)
	}
	R, S, l := Data()

	t.Run("generation visibility", func(t *testing.T) {
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 100_000, BuildSeed: 11})
		ctx := context.Background()
		g0, err := src.Apply(ctx, srj.Update{})
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		// An empty update never bumps.
		if g, err := src.Apply(ctx, srj.Update{}); err != nil || g != g0 {
			t.Fatalf("second probe: gen %d (was %d), err %v", g, g0, err)
		}
		g1, err := src.Apply(ctx, srj.Update{InsertR: []srj.Point{{ID: 7777, X: S[0].X, Y: S[0].Y}}})
		if err != nil {
			t.Fatal(err)
		}
		if g1 <= g0 {
			t.Fatalf("insert did not bump the generation: %d after %d", g1, g0)
		}
		g2, err := src.Apply(ctx, srj.Update{DeleteR: []int32{7777}})
		if err != nil {
			t.Fatal(err)
		}
		if g2 <= g1 {
			t.Fatalf("delete did not bump the generation: %d after %d", g2, g1)
		}
		// The bump is visible to sampling immediately: the deleted
		// point never appears again.
		err = src.DrawFunc(ctx, srj.Request{T: 20_000}, func(batch []srj.Pair) error {
			for _, p := range batch {
				if p.R.ID == 7777 {
					t.Fatal("deleted insert 7777 sampled after its delete")
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("uniformity after updates", func(t *testing.T) {
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 12})
		script, curR, curS := updateScript(R, S, l)
		applyScript(t, src, script)

		jset := map[[2]int32]bool{}
		srj.Join(curR, curS, l, func(r, s srj.Point) bool {
			jset[[2]int32{r.ID, s.ID}] = true
			return true
		})
		if len(jset) < 50 || len(jset) > 5000 {
			t.Fatalf("test setup: |J| = %d not in a good range", len(jset))
		}
		// The deltas must carry real mass, or the suite would pass on
		// an implementation that ignores inserts.
		deltaPairs := 0
		for k := range jset {
			if k[0] >= 9000 || k[1] >= 9000 {
				deltaPairs++
			}
		}
		if deltaPairs < 5 {
			t.Fatalf("test setup: only %d join pairs touch inserted points", deltaPairs)
		}

		const draws = 150_000
		counts := map[[2]int32]int{}
		err := src.DrawFunc(context.Background(), srj.Request{T: draws}, func(batch []srj.Pair) error {
			for _, p := range batch {
				k := [2]int32{p.R.ID, p.S.ID}
				if !jset[k] {
					t.Fatalf("sampled pair %v not in the current join", k)
				}
				if !srj.Window(p.R, l).Contains(p.S) {
					t.Fatalf("pair %v outside window", p)
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
		// The p≈0.001 bound the static uniformity subtests use.
		limit := dof + 4*math.Sqrt(2*dof) + 10
		if chi2 > limit {
			t.Fatalf("distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
		}
	})

	t.Run("no deleted pair", func(t *testing.T) {
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 13})
		ctx := context.Background()
		// Establish that the victims participate in the join before
		// the delete — otherwise the subtest would pass vacuously.
		victims := map[int32]bool{R[1].ID: true, R[4].ID: true}
		victimS := map[int32]bool{S[6].ID: true}
		seen := 0
		err := src.DrawFunc(ctx, srj.Request{T: 30_000}, func(batch []srj.Pair) error {
			for _, p := range batch {
				if victims[p.R.ID] || victimS[p.S.ID] {
					seen++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen == 0 {
			t.Fatal("test setup: victims never sampled before their delete")
		}
		u := srj.Update{DeleteS: []int32{S[6].ID}}
		for id := range victims {
			u.DeleteR = append(u.DeleteR, id)
		}
		if _, err := src.Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
		err = src.DrawFunc(ctx, srj.Request{T: 150_000}, func(batch []srj.Pair) error {
			for _, p := range batch {
				if victims[p.R.ID] || victimS[p.S.ID] {
					t.Fatalf("deleted pair sampled: (%d,%d)", p.R.ID, p.S.ID)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("determinism within generation", func(t *testing.T) {
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 100_000, BuildSeed: 14})
		script, _, _ := updateScript(R, S, l)
		applyScript(t, src, script)
		ctx := context.Background()
		a, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// Interleaved unseeded traffic must not perturb seeded draws.
		if _, err := src.Draw(ctx, srj.Request{T: 555}); err != nil {
			t.Fatal(err)
		}
		b, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Pairs) != 2000 || len(b.Pairs) != 2000 {
			t.Fatalf("got %d and %d pairs", len(a.Pairs), len(b.Pairs))
		}
		for i := range a.Pairs {
			if a.Pairs[i] != b.Pairs[i] {
				t.Fatalf("equal seeds diverged at sample %d within one generation", i)
			}
		}
		c, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range a.Pairs {
			if a.Pairs[i] == c.Pairs[i] {
				same++
			}
		}
		if same > len(a.Pairs)/2 {
			t.Fatalf("distinct seeds repeated %d/%d samples", same, len(a.Pairs))
		}
		// A mutation starts a new generation: the same seed may draw a
		// different sequence, but the request must still serve the
		// mutated dataset (no stale structures).
		if _, err := src.Apply(ctx, srj.Update{DeleteR: []int32{a.Pairs[0].R.ID}}); err != nil {
			t.Fatal(err)
		}
		d, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range d.Pairs {
			if p.R.ID == a.Pairs[0].R.ID {
				t.Fatalf("sample %d serves the point deleted one generation ago", i)
			}
		}
	})

	t.Run("sustained churn", func(t *testing.T) {
		// Hundreds of small batches with roughly constant cardinality —
		// the steady-churn regime in-place maintenance is built for. The
		// source must come out of it still uniform over the brute-force
		// join of the final point sets (an implementation whose
		// incremental weight updates drift would skew here long before
		// any single-batch subtest notices) and still deterministic
		// under equal seeds.
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 17})
		ctx := context.Background()
		curR, curS := R, S
		const (
			rounds = 250
			window = 40 // live churn inserts per side at steady state
		)
		for i := 0; i < rounds; i++ {
			u := srj.Update{
				InsertR: []srj.Point{{ID: int32(20_000 + i), X: S[(2*i)%len(S)].X + l/5, Y: S[(2*i)%len(S)].Y - l/7}},
				InsertS: []srj.Point{{ID: int32(30_000 + i), X: R[(3*i)%len(R)].X - l/6, Y: R[(3*i)%len(R)].Y + l/8}},
			}
			if i >= window {
				u.DeleteR = []int32{int32(20_000 + i - window)}
				u.DeleteS = []int32{int32(30_000 + i - window)}
			}
			if _, err := src.Apply(ctx, u); err != nil {
				t.Fatalf("churn apply %d: %v", i, err)
			}
			curR = modelApply(curR, u.InsertR, u.DeleteR)
			curS = modelApply(curS, u.InsertS, u.DeleteS)
		}

		jset := map[[2]int32]bool{}
		srj.Join(curR, curS, l, func(r, s srj.Point) bool {
			jset[[2]int32{r.ID, s.ID}] = true
			return true
		})
		if len(jset) < 50 || len(jset) > 20_000 {
			t.Fatalf("test setup: |J| = %d not in a good range", len(jset))
		}
		churnPairs := 0
		for k := range jset {
			if k[0] >= 20_000 || k[1] >= 30_000 {
				churnPairs++
			}
		}
		if churnPairs < 5 {
			t.Fatalf("test setup: only %d join pairs touch churned points", churnPairs)
		}

		const draws = 150_000
		counts := map[[2]int32]int{}
		err := src.DrawFunc(ctx, srj.Request{T: draws}, func(batch []srj.Pair) error {
			for _, p := range batch {
				k := [2]int32{p.R.ID, p.S.ID}
				if !jset[k] {
					t.Fatalf("sampled pair %v not in the post-churn join", k)
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
			t.Fatalf("post-churn distribution skewed: chi2 = %.1f > %.1f (dof %g)", chi2, limit, dof)
		}

		// Equal seeds still replay within the settled generation.
		a, err := src.Draw(ctx, srj.Request{T: 1500, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		b, err := src.Draw(ctx, srj.Request{T: 1500, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Pairs {
			if a.Pairs[i] != b.Pairs[i] {
				t.Fatalf("equal seeds diverged at sample %d after sustained churn", i)
			}
		}
	})

	if o.restart != nil {
		t.Run("durability across restart", func(t *testing.T) {
			src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 500_000, BuildSeed: 16})
			ctx := context.Background()
			// Mutations an implementation could fake from seed data are
			// useless here: delete base points that join, insert a
			// far-away cluster, then delete one of the inserts — the
			// reopened source must reflect all of it.
			// R and S IDs overlap in Data(), so the victim sets are
			// per-side — exactly like the "no deleted pair" subtest.
			victimR := map[int32]bool{R[1].ID: true}
			victimS := map[int32]bool{S[6].ID: true}
			if _, err := src.Apply(ctx, srj.Update{
				DeleteR: []int32{R[1].ID},
				DeleteS: []int32{S[6].ID},
				InsertR: []srj.Point{{ID: 8800, X: S[9].X + l/4, Y: S[9].Y}},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := src.Apply(ctx, srj.Update{
				InsertR: []srj.Point{{ID: 8801, X: S[10].X - l/3, Y: S[10].Y}},
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := src.Apply(ctx, srj.Update{DeleteR: []int32{8801}}); err != nil {
				t.Fatal(err)
			}

			reopened := o.restart(t, src)
			sawInsert := false
			err := reopened.DrawFunc(ctx, srj.Request{T: 150_000}, func(batch []srj.Pair) error {
				for _, p := range batch {
					if victimR[p.R.ID] || victimS[p.S.ID] {
						t.Fatalf("deleted pair (%d,%d) resurrected by restart", p.R.ID, p.S.ID)
					}
					if p.R.ID == 8801 {
						t.Fatal("deleted insert 8801 resurrected by restart")
					}
					if p.R.ID == 8800 {
						sawInsert = true
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sawInsert {
				t.Fatal("surviving insert 8800 lost across restart")
			}
			// The sequence keeps moving: a post-restart delete lands and
			// is immediately visible.
			if _, err := reopened.Apply(ctx, srj.Update{DeleteR: []int32{8800}}); err != nil {
				t.Fatalf("post-restart update: %v", err)
			}
			err = reopened.DrawFunc(ctx, srj.Request{T: 50_000}, func(batch []srj.Pair) error {
				for _, p := range batch {
					if p.R.ID == 8800 {
						t.Fatal("point deleted after restart still sampled")
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("bad update", func(t *testing.T) {
		// Non-finite inserts are refused with ErrBadRequest — the same
		// sentinel locally and over the wire — and refuse atomically:
		// the generation does not move.
		src := newUpdatable(t, Config{R: R, S: S, L: l, MaxT: 10_000, BuildSeed: 15})
		ctx := context.Background()
		g0, err := src.Apply(ctx, srj.Update{})
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		bad := srj.Update{InsertR: []srj.Point{{ID: 1, X: math.NaN(), Y: 0}}}
		if _, err := src.Apply(ctx, bad); !errors.Is(err, srj.ErrBadRequest) {
			t.Fatalf("NaN insert: err = %v, want ErrBadRequest", err)
		}
		if g, err := src.Apply(ctx, srj.Update{}); err != nil || g != g0 {
			t.Fatalf("rejected update moved the generation: %d (was %d), err %v", g, g0, err)
		}
	})
}
