package dynamic

// Tests pinning the in-place maintenance path: steady churn must be
// absorbed without a single rebuild, size accounting must charge the
// shared base exactly once across resident generations, the
// pathological-skew hatch must still schedule a background rebuild,
// Compact must fold the mutable line back into a frozen base, and a
// rebuild raced by writes must fold them in and stay in place.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/geom"
)

// countingPersister records write-ahead traffic — the store-level view
// of the durability contract, with no real log underneath.
type countingPersister struct {
	mu           sync.Mutex
	appends      uint64
	snapshots    uint64
	lastSnapID   uint64
	lastR, lastS int
}

func (p *countingPersister) Append(id uint64, u Update) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.appends++
	return nil
}

func (p *countingPersister) Snapshot(gen, lastID uint64, R, S []geom.Point) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshots++
	p.lastSnapID = lastID
	p.lastR, p.lastS = len(R), len(S)
	return nil
}

func (p *countingPersister) PersistStats() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistStats{Appends: p.appends, Snapshots: p.snapshots, LastSnapshotID: p.lastSnapID}
}

// TestStoreInPlaceSnapshotCadence: steady churn runs no rebuilds, so
// the store must snapshot on its own cadence — otherwise the
// write-ahead log of a steadily-churning store grows forever.
func TestStoreInPlaceSnapshotCadence(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	p := &countingPersister{}
	cfg := testConfig(l, 23)
	cfg.Persister = p
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const rounds = 100
	for i := 0; i < rounds; i++ {
		id := int32(4000 + i)
		u := Update{InsertS: []geom.Point{{ID: id, X: float64(i), Y: -float64(i)}}}
		if i >= 2 {
			u.DeleteS = []int32{int32(4000 + i - 2)}
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if err := st.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := st.Rebuilds(); got != 0 {
		t.Errorf("Rebuilds = %d under steady churn, want 0", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.appends != rounds {
		t.Errorf("appends = %d, want %d", p.appends, rounds)
	}
	// 100 records over ~120 live points at the default 0.25 fraction:
	// the cadence must have fired more than once, and the latest
	// snapshot must cover a recently-applied ID with the live sets.
	if p.snapshots < 2 {
		t.Errorf("snapshots = %d under sustained churn, want >= 2", p.snapshots)
	}
	if p.lastSnapID == 0 || p.lastSnapID > uint64(rounds) {
		t.Errorf("last snapshot covers ID %d, want in (0, %d]", p.lastSnapID, rounds)
	}
	if p.lastR != len(R) || p.lastS == 0 {
		t.Errorf("snapshot sets %d/%d points, want %d live R", p.lastR, p.lastS, len(R))
	}
}

// TestStoreInPlaceSteadyChurn is the tentpole's acceptance test at the
// store level: a long insert/delete churn with roughly constant
// cardinality is absorbed entirely in place — zero rebuilds, every op
// counted by InPlaceOps — and the store still
// serves exactly the current join with valid bucket invariants.
func TestStoreInPlaceSteadyChurn(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	st, err := NewStore(R, S, testConfig(l, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen(400, 99) // coordinate donor for inserted points

	const rounds = 150
	wantOps := 0
	for i := 0; i < rounds; i++ {
		id := int32(1000 + i)
		d := fresh[i%len(fresh)]
		u := Update{
			InsertR: []geom.Point{{ID: id, X: d.X, Y: d.Y}},
			InsertS: []geom.Point{{ID: id, X: d.Y, Y: d.X}},
		}
		if i >= 3 {
			// Delete an earlier insert on each side: cardinality stays
			// flat, so the rebase hatch must never trip.
			u.DeleteR = []int32{int32(1000 + i - 3)}
			u.DeleteS = []int32{int32(1000 + i - 3)}
		}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		model.apply(u)
		wantOps += u.Ops()
	}

	if got := st.Rebuilds(); got != 0 {
		t.Errorf("Rebuilds = %d after steady churn, want 0", got)
	}
	if got := st.InPlaceOps(); got != uint64(wantOps) {
		t.Errorf("InPlaceOps = %d, want %d", got, wantOps)
	}
	if !st.InPlace() {
		t.Error("InPlace = false after in-place churn")
	}
	v := st.view.Load()
	if v.mut == nil {
		t.Fatal("view carries no mutable index after in-place churn")
	}
	if err := v.mut.Index().CheckInvariants(); err != nil {
		t.Fatalf("bucket invariants after churn: %v", err)
	}
	checkSupport(t, drawAll(t, st, 4000), joinSet(model.R, model.S, l))
}

// TestStoreSizeAccountingAcrossGenerations is the regression test for
// the budget double-count: engines for derived generations share the
// structures of the view that built them and must not charge them
// again, so a registry holding engines for consecutive generations of
// one store accounts the base once, not once per resident generation.
// The rule holds whether the derived view descends from the initial
// bulk build or from a rebuild that folded a raced update.
func TestStoreSizeAccountingAcrossGenerations(t *testing.T) {
	inBothModes(t, testStoreSizeAccountingAcrossGenerations)
}

func testStoreSizeAccountingAcrossGenerations(t *testing.T, apply applyFunc) {
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	// A base large enough that any re-charge of it dwarfs a 2-point
	// delta, whatever the per-structure constants.
	R, S := gen(2000, 31), gen(2000, 32)
	l := 400.0
	st, err := NewStore(R, S, testConfig(l, 9))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	_, e0, err := st.ViewEngine()
	if err != nil {
		t.Fatal(err)
	}
	base := e0.SizeBytes()
	if base <= 0 {
		t.Fatalf("generation-0 engine SizeBytes = %d, want > 0", base)
	}

	apply(t, st, Update{
		InsertR: []geom.Point{{ID: 50_000, X: 1, Y: 2}},
		InsertS: []geom.Point{{ID: 50_000, X: 3, Y: 4}},
	})
	u := Update{
		InsertR: []geom.Point{{ID: 50_001, X: 5, Y: 6}},
		DeleteS: []int32{50_000},
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	_, e2, err := st.ViewEngine()
	if err != nil {
		t.Fatal(err)
	}
	derived := e2.SizeBytes()
	// Pre-fix the derived engine re-charged the whole shared base, so
	// it came out >= base. Post-fix it charges only its own
	// structures, a sliver of the base footprint.
	if 2*derived >= base {
		t.Errorf("derived engine SizeBytes = %d re-charges the shared base (base = %d)", derived, base)
	}
	// The store's own footprint still covers the base exactly once:
	// at least the base, nowhere near two of them.
	if got := st.SizeBytes(); got < base/2 || got >= 2*base {
		t.Errorf("Store.SizeBytes = %d, want about one base (%d)", got, base)
	}
}

// TestStoreInPlaceRebaseHatch grows one side far past the bulk-built
// geometry: the escape hatch must schedule a background rebuild even
// though steady churn never does.
func TestStoreInPlaceRebaseHatch(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	cfg := testConfig(l, 13)
	var hookMu sync.Mutex
	var hookGens []uint64
	cfg.OnGeneration = func(gen uint64) {
		hookMu.Lock()
		hookGens = append(hookGens, gen)
		hookMu.Unlock()
	}
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	fresh := gen(700, 77)
	for i, p := range fresh {
		u := Update{InsertS: []geom.Point{{ID: int32(2000 + i), X: p.X, Y: p.Y}}}
		if _, err := st.Apply(ctx, u); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		model.apply(u)
	}
	if err := st.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.LastRebuildErr(); err != nil {
		t.Fatal(err)
	}
	if got := st.Rebuilds(); got == 0 {
		t.Error("Rebuilds = 0 after 10x S growth, want the skew hatch to fire")
	}
	// The invalidation hook fired for every Apply AND for every rebuild
	// swap no handler observed — those extra calls are what keep a
	// rebuild from stranding a stale cached engine.
	hookMu.Lock()
	gens := append([]uint64(nil), hookGens...)
	hookMu.Unlock()
	if want := len(fresh) + int(st.Rebuilds()); len(gens) != want {
		t.Errorf("OnGeneration fired %d times, want %d (applies + rebuild swaps)", len(gens), want)
	}
	if len(gens) == 0 || gens[len(gens)-1] != st.Generation() {
		t.Errorf("last OnGeneration call %v, want the current generation %d", gens, st.Generation())
	}
	checkSupport(t, drawAll(t, st, 4000), joinSet(model.R, model.S, l))
}

// TestStoreCompactFoldsInPlace: Compact turns a mutable view back into
// a frozen bulk-built base (the only remaining planned rebuild), and
// the next Apply unfreezes again.
func TestStoreCompactFoldsInPlace(t *testing.T) {
	R, S := testData(t)
	l := 1500.0
	st, err := NewStore(R, S, testConfig(l, 17))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	model := &currentSets{R: R, S: S}

	u := Update{
		InsertR: []geom.Point{{ID: 3000, X: 100, Y: -200}},
		DeleteS: []int32{S[4].ID},
	}
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	model.apply(u)
	if !st.InPlace() {
		t.Fatal("InPlace = false after an in-place apply")
	}

	genBefore := st.Generation()
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if st.InPlace() {
		t.Error("InPlace = true after Compact, want a frozen base")
	}
	if got := st.Rebuilds(); got != 1 {
		t.Errorf("Rebuilds = %d after Compact, want 1", got)
	}
	if got := st.Generation(); got <= genBefore {
		t.Errorf("Generation = %d after Compact, want > %d", got, genBefore)
	}
	jset := joinSet(model.R, model.S, l)
	checkSupport(t, drawAll(t, st, 3000), jset)

	// The compacted base supports in-place maintenance again.
	u2 := Update{InsertS: []geom.Point{{ID: 3001, X: -50, Y: 75}}}
	if _, err := st.Apply(ctx, u2); err != nil {
		t.Fatal(err)
	}
	model.apply(u2)
	if !st.InPlace() {
		t.Error("InPlace = false after post-Compact apply")
	}
	if got := st.Rebuilds(); got != 1 {
		t.Errorf("Rebuilds = %d after post-Compact apply, want still 1", got)
	}
	checkSupport(t, drawAll(t, st, 3000), joinSet(model.R, model.S, l))
}

// TestStoreCompactRacedByAppliesStaysInPlace: a Compact raced by a
// tight Apply loop must fold the raced updates into the new base, so
// the store stays on the in-place path. The next Apply is absorbed in
// place and counted, and no deleted point is ever drawn. The retired
// overlay replayed raced updates as deltas and then refused to
// unfreeze, serving every later op from the mixture.
func TestStoreCompactRacedByAppliesStaysInPlace(t *testing.T) {
	gen, err := dataset.ByName("uniform")
	if err != nil {
		t.Fatal(err)
	}
	R, S := gen(8000, 41), gen(8000, 42)
	l := 1500.0
	cfg := testConfig(l, 29)
	cfg.DisableAutoRebuild = true
	st, err := NewStore(R, S, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fresh := gen(4000, 43) // coordinate donor for inserted points

	// Every round inserts one point per side and deletes the pair the
	// round before inserted, so the deleted set grows while the live
	// cardinality stays flat.
	round := func(i int) Update {
		d := fresh[i%len(fresh)]
		u := Update{
			InsertR: []geom.Point{{ID: int32(100_000 + i), X: d.X, Y: d.Y}},
			InsertS: []geom.Point{{ID: int32(100_000 + i), X: d.Y, Y: d.X}},
		}
		if i > 0 {
			u.DeleteR = []int32{int32(100_000 + i - 1)}
			u.DeleteS = []int32{int32(100_000 + i - 1)}
		}
		return u
	}
	if _, err := st.Apply(ctx, round(0)); err != nil {
		t.Fatal(err)
	}

	var compacting, stop atomic.Bool
	var raced atomic.Int64
	applied := make(chan int)
	var applyErr error
	go func() {
		i := 1
		defer func() { applied <- i }()
		for !stop.Load() {
			during := compacting.Load()
			if _, err := st.Apply(ctx, round(i)); err != nil {
				applyErr = err
				return
			}
			if during && compacting.Load() {
				raced.Add(1)
			}
			i++
		}
	}()
	compacting.Store(true)
	if err := st.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	compacting.Store(false)
	stop.Store(true)
	next := <-applied
	if applyErr != nil {
		t.Fatal(applyErr)
	}
	if raced.Load() == 0 {
		t.Fatal("test setup: no Apply ran while the Compact was in flight")
	}
	if got := st.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d, want 1", got)
	}

	before := st.InPlaceOps()
	u := round(next)
	if _, err := st.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if !st.InPlace() {
		t.Fatal("InPlace = false after a raced Compact and one more Apply")
	}
	if got := st.InPlaceOps() - before; got != uint64(u.Ops()) {
		t.Fatalf("InPlaceOps grew by %d on the post-Compact apply, want %d", got, u.Ops())
	}
	if err := st.view.Load().mut.Index().CheckInvariants(); err != nil {
		t.Fatalf("bucket invariants after the folded rebuild: %v", err)
	}
	// Only the last round's inserts are live; every earlier inserted ID
	// was deleted and must never be drawn.
	live := int32(100_000 + next)
	err = st.DrawFunc(ctx, engine.Request{T: 50_000}, func(batch []geom.Pair) error {
		for _, p := range batch {
			if (p.R.ID >= 100_000 && p.R.ID != live) || (p.S.ID >= 100_000 && p.S.ID != live) {
				return fmt.Errorf("sampled deleted pair (%d,%d)", p.R.ID, p.S.ID)
			}
			if !geom.Window(p.R, l).Contains(p.S) {
				return fmt.Errorf("sampled pair outside the window: %v", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
