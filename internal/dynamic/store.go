// Package dynamic makes the paper's BBST join sampler mutable. The
// structures of "Random Sampling over Spatial Range Joins" are built
// once over immutable R and S; a serving system also needs insert and
// delete. A Store serves its bulk-built base frozen until the first
// Apply, which converts it once into a core.Mutable (Unfreeze); every
// Apply after that edits the live structures copy-on-write along the
// touched path only, in Õ(ops) per batch. There are no insert buffers,
// no tombstones, and no threshold: steady churn never rebuilds. A bulk
// rebuild happens only on explicit Compact, or in the background when
// the live S count drifts so far from what the bucket capacity was
// sized for that the corner bounds would rot the acceptance rate
// (core.Mutable.NeedsRebase, the pathological-skew escape hatch).
// Updates applied while a rebuild builds are folded into the new base
// with ApplyOps before it swaps in, so a rebuild never leaves the
// in-place path. A store whose join is empty (an empty store
// included) starts from an unfrozen index with no mass.
//
// Generations are the invalidation currency of the serving stack:
// every applied batch and every rebuild swap bumps the store's
// generation, registry keys carry one (internal/registry), so engines
// cached for an older generation simply miss instead of serving
// deleted points, and the shard router broadcasts updates so every
// backend's stores and caches advance together.
//
// Concurrency model: Draw/DrawFunc never block on writers — they load
// an immutable *view* (one index version plus its serving engine)
// through an atomic pointer and draw from it. Apply and the rebuild
// swap serialize on one mutex and publish whole new views; requests
// in flight on an old view finish against the structures they
// started with, exactly like a registry eviction never invalidates an
// engine already checked out.
package dynamic

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geom"
)

// snapshotFraction sets the in-place path's snapshot cadence: a
// background snapshot starts once the write-ahead records since the
// last one reach this fraction of the live point count.
const snapshotFraction = 0.25

// ErrStaleGeneration reports a request for a generation the store has
// already moved past. The registry's BuildFunc returns it when a
// generation-tagged key loses the race with a concurrent Apply; the
// server retries with the fresh generation. It is never cached (the
// registry does not cache build errors).
var ErrStaleGeneration = errors.New("dynamic: generation is stale")

// Update is one batch of mutations: points to insert and point IDs to
// delete, per side. Deleting an ID removes every live point carrying
// it on that side; an ID present nowhere is a no-op. Deletes apply
// before inserts, so a batch may delete an ID and insert its
// replacement, and re-inserting a deleted ID later is allowed.
type Update struct {
	InsertR []geom.Point `json:"insert_r,omitempty"`
	InsertS []geom.Point `json:"insert_s,omitempty"`
	DeleteR []int32      `json:"delete_r,omitempty"`
	DeleteS []int32      `json:"delete_s,omitempty"`
}

// Empty reports whether the update carries no operations.
func (u Update) Empty() bool { return u.Ops() == 0 }

// Ops counts the operations the update carries.
func (u Update) Ops() int {
	return len(u.InsertR) + len(u.InsertS) + len(u.DeleteR) + len(u.DeleteS)
}

// Validate rejects updates the index structures cannot absorb:
// non-finite insert coordinates. Errors wrap engine.ErrBadRequest, so
// servers answer 400 and errors.Is works identically local and
// remote.
func (u Update) Validate() error {
	if err := validFinite(u.InsertR, "insert_r"); err != nil {
		return err
	}
	return validFinite(u.InsertS, "insert_s")
}

func validFinite(pts []geom.Point, side string) error {
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("%w: %s point %d (ID %d) has non-finite coordinates",
				engine.ErrBadRequest, side, i, p.ID)
		}
	}
	return nil
}

// Config parameterizes a Store.
type Config struct {
	// BuildBase bulk-builds the BBST base over the given point sets
	// (the window half-extent and the sampler tuning live in this
	// closure; the root package supplies core.NewBBST). The store
	// prepares the result through Count. Required.
	BuildBase func(R, S []geom.Point) (*core.BBSTSampler, error)
	// Seed drives the per-view serving pools; equal seeds make
	// equal-seeded draws reproducible within one generation.
	Seed uint64
	// MaxT caps the samples one request may ask for on every view
	// engine (0 = unlimited).
	MaxT int
	// DisableAutoRebuild suppresses the skew escape hatch's background
	// rebuilds; Compact still rebuilds on demand. Tests use it to pin
	// the current structures.
	DisableAutoRebuild bool
	// OnGeneration, when non-nil, is invoked with the new generation
	// after every view swap — Applies AND background rebuild swaps,
	// which bump the generation with no Apply in sight. The serving
	// layer hangs cache invalidation here (evicting registry engines
	// of older generations), so a rebuild's bump cannot strand a
	// stale view engine in the cache until the next update. Called
	// under the store's write lock: keep it fast and do not call back
	// into the store.
	OnGeneration func(gen uint64)
	// Persister, when non-nil, is the write-ahead durability hook (see
	// persist.go): every applied batch is appended before its view
	// publishes, and rebuild swaps persist a base snapshot. May also be
	// installed after construction with SetPersister (recovery does,
	// so replayed records are not re-appended).
	Persister Persister
	// InitialGeneration seeds the store's generation (recovery resumes
	// at the snapshot's generation instead of 0, so pre-crash cache
	// keys can never alias post-recovery contents).
	InitialGeneration uint64
	// InitialLastApplied seeds the last applied update ID (recovery
	// resumes at the snapshot's coverage; replayed records continue
	// from there).
	InitialLastApplied uint64
}

// view is one immutable snapshot of the store: one version of the
// index and the serving engine over it. Draws load it atomically;
// writers replace it wholesale.
type view struct {
	gen uint64
	// lastID is the last sequenced update ID folded into this view —
	// what a snapshot of its live points covers.
	lastID uint64

	// Exactly one of base and mut is set. base is a frozen bulk build
	// (prepared through Count) over R and S; mut is a version of the
	// in-place maintained index, which IS the current dataset.
	base *core.BBSTSampler
	R, S []geom.Point
	mut  *core.Mutable

	// size is the footprint of the view's structures; owned reports
	// that this view built them (a bulk build) rather than deriving
	// them copy-on-write from the previous view's.
	size  int
	owned bool

	eng *engine.Engine // nil when the current join is empty

	estMu sync.Mutex
	est   core.Sampler // sampler clone for join-size estimation
}

// mass is the view's Σµ: the total trial weight the join-size
// estimate scales the acceptance rate by.
func (v *view) mass() float64 {
	if v.mut != nil {
		return v.mut.Stats().MuSum
	}
	return v.base.Stats().MuSum
}

// points returns the view's live point sets: the build input of a
// frozen base (shared — never mutated), or a fresh materialization of
// a mutable version.
func (v *view) points() (R, S []geom.Point) {
	if v.mut != nil {
		return v.mut.LivePoints()
	}
	return v.R, v.S
}

// Store is a mutable join-sampling dataset: the Source-serving front
// of this package. Construct with NewStore; all methods are safe for
// concurrent use.
type Store struct {
	cfg  Config
	view atomic.Pointer[view]

	mu             sync.Mutex
	log            []Update // updates applied while a rebuild is in flight
	lastApplied    uint64   // last sequenced update ID (persist.go)
	gap            map[uint64]*gapWaiter
	rebuilding     bool
	rebuildDone    chan struct{}
	lastRebuildErr error
	lastPersistErr error

	// snapPending counts write-ahead records applied since the last
	// snapshot, and snapshotting guards the one in-flight background
	// snapshot: steady churn runs no rebuilds, so the log is pruned on
	// this cadence instead (maybeSnapshotLocked).
	snapPending  int
	snapshotting bool
	snapDone     chan struct{}
	acc          engine.Stats // counters of retired view engines

	// rebuilds counts base rebuilds that swapped in successfully
	// (background compactions and explicit Compact calls alike). It
	// backs srj_store_rebuilds_total and never decreases.
	rebuilds atomic.Uint64

	// inplace counts operations absorbed by in-place index maintenance.
	// It backs srj_store_inplace_ops_total and the /v1/stats
	// inplace_ops field; in steady churn it grows while rebuilds stays
	// flat.
	inplace atomic.Uint64

	// persistErrs counts snapshot failures. lastPersistErr holds only
	// the latest one (and clears on success); this counter backs the
	// monotonic srj_store_persist_errors_total, so an alert fires on
	// rate() even when a later snapshot happens to succeed.
	persistErrs atomic.Uint64

	// testHookSwap, when set (by tests, before serving), runs under mu
	// immediately after every view swap — the in-lock invariant hook
	// of the race hammer.
	testHookSwap func(*view)
	// testHookBuilt, when set (by tests, before starting a rebuild),
	// runs in the rebuild goroutine right after the bulk build, outside
	// mu — where a test lands the writes the swap must fold in.
	testHookBuilt func()
}

// NewStore bulk-builds the base over R and S and returns a store
// serving them at generation 0. The slices are not copied and must
// not be mutated afterwards (Apply never touches them — mutations
// edit the store's own index). Empty sides are allowed: a store may
// start empty and be filled through Apply.
func NewStore(R, S []geom.Point, cfg Config) (*Store, error) {
	if cfg.BuildBase == nil {
		return nil, fmt.Errorf("dynamic: Config.BuildBase is required")
	}
	if err := validFinite(R, "R"); err != nil {
		return nil, err
	}
	if err := validFinite(S, "S"); err != nil {
		return nil, err
	}
	st := &Store{cfg: cfg, lastApplied: cfg.InitialLastApplied}
	v, err := st.buildView(R, S)
	if err != nil {
		return nil, err
	}
	v.gen, v.lastID = cfg.InitialGeneration, cfg.InitialLastApplied
	if err := st.finishView(v); err != nil {
		return nil, err
	}
	st.view.Store(v)
	return st, nil
}

// buildView bulk-builds the base over R and S and prepares it through
// Count. A provably empty join (an empty side included) has nothing to
// serve frozen, so it is unfrozen at once: the index starts with no
// mass and fills through Apply, and the skew hatch rebuilds it once it
// has grown.
func (st *Store) buildView(R, S []geom.Point) (*view, error) {
	base, err := st.cfg.BuildBase(R, S)
	if err != nil {
		return nil, err
	}
	err = base.Count()
	if errors.Is(err, core.ErrEmptyJoin) {
		m, err := base.Unfreeze()
		if err != nil {
			return nil, err
		}
		return &view{mut: m, size: m.SizeBytes(), owned: true}, nil
	}
	if err != nil {
		return nil, err
	}
	return &view{base: base, R: R, S: S, size: base.SizeBytes(), owned: true}, nil
}

// mutableTipLocked resolves the in-place handle the next apply should
// extend: the current view's, or a fresh unfreeze of a frozen base —
// the one O(n + m) step of the in-place line. Called with mu held.
func (st *Store) mutableTipLocked(v *view) (*core.Mutable, error) {
	if v.mut != nil {
		return v.mut, nil
	}
	return v.base.Unfreeze()
}

// mutOps converts an Update into the core batch type. Slices are
// shared — ApplyOps only reads them.
func mutOps(u Update) core.MutOps {
	return core.MutOps{InsR: u.InsertR, InsS: u.InsertS, DelR: u.DeleteR, DelS: u.DeleteS}
}

// finishView builds the view's serving engine. An empty current join
// leaves v.eng nil; Draw answers core.ErrEmptyJoin until an Apply
// makes the join non-empty again.
//
// The engine serves a clone of the view's structures: consecutive
// views share one base or index version, and a clone pool advances
// its parent's stream on every pooled clone — two views pooling one
// shared parent would race. Views are built under st.mu, so the
// shared original is only ever cloned serialized.
//
// Size charging: the engine reports the view's structures to the
// registry budget only when this view built them. Derived views share
// almost all structure copy-on-write with the build they descend from
// and charge nothing, so a registry holding engines for consecutive
// generations counts the shared base once; Store.SizeBytes reports
// the whole footprint.
func (st *Store) finishView(v *view) error {
	if v.mass() <= 0 {
		v.eng, v.est = nil, nil
		return nil
	}
	var c core.Sampler
	var err error
	if v.mut != nil {
		c, err = v.mut.Clone()
	} else {
		c, err = v.base.Clone()
	}
	if err != nil {
		return err
	}
	parent := c.(core.Cloner)
	est, err := parent.Clone()
	if err != nil {
		return err
	}
	charge := 0
	if v.owned {
		charge = v.size
	}
	eng, err := engine.NewShared(parent, st.cfg.Seed, charge)
	if err != nil {
		return err
	}
	if st.cfg.MaxT > 0 {
		eng.SetMaxT(st.cfg.MaxT)
	}
	v.eng, v.est = eng, est
	return nil
}

// Apply absorbs one batch of mutations and returns the new
// generation. Batches serialize; draws in flight keep serving the
// view they started on. An empty update returns the current
// generation without bumping it (the remote tiers use this as a
// generation probe). The batch edits the index in place in Õ(ops);
// only the first Apply onto a frozen base pays the O(n + m) unfreeze.
//
// Apply self-stamps the next update ID — it is ApplyAt(ctx, 0, u),
// the single-writer spelling of the sequenced path in persist.go.
func (st *Store) Apply(ctx context.Context, u Update) (uint64, error) {
	res, err := st.ApplyAt(ctx, 0, u)
	return res.Generation, err
}

// swapLocked publishes a new view, folding the retired engine's
// counters into the store accumulator. Called with mu held.
func (st *Store) swapLocked(nv *view) {
	if old := st.view.Load(); old != nil && old.eng != nil {
		st.acc = addStats(st.acc, old.eng.Stats())
	}
	st.view.Store(nv)
	if st.testHookSwap != nil {
		st.testHookSwap(nv)
	}
	if st.cfg.OnGeneration != nil {
		st.cfg.OnGeneration(nv.gen)
	}
}

// addStats sums two engine counter snapshots.
func addStats(a, b engine.Stats) engine.Stats {
	a.Requests += b.Requests
	a.Samples += b.Samples
	a.Trials += b.Trials
	a.Failures += b.Failures
	a.ClientFailures += b.ClientFailures
	a.SamplerFailures += b.SamplerFailures
	a.TotalLatency += b.TotalLatency
	if b.MaxLatency > a.MaxLatency {
		a.MaxLatency = b.MaxLatency
	}
	a.Latency = a.Latency.Merge(b.Latency)
	return a
}

// maybeRebuildLocked schedules a background base rebuild when the skew
// escape hatch trips. Called with mu held.
func (st *Store) maybeRebuildLocked(v *view) {
	if st.rebuilding || st.cfg.DisableAutoRebuild || v.mut == nil || !v.mut.NeedsRebase() {
		return
	}
	st.startRebuildLocked(v)
}

// startRebuildLocked launches the background rebuild goroutine over
// the given view. Called with mu held and st.rebuilding false. The
// log starts empty: it accumulates exactly the updates applied while
// this rebuild is in flight (everything earlier is inside v), so the
// log never grows during steady serving.
func (st *Store) startRebuildLocked(v *view) {
	st.rebuilding = true
	st.rebuildDone = make(chan struct{})
	st.log = nil
	st.snapPending = 0 // the rebuild swap snapshots on its own
	go st.rebuild(v, st.rebuildDone)
}

// rebuild is the background compaction: bulk-build a fresh base over
// the source view's live points outside the lock, then swap it in at
// a bumped generation. Updates applied while it was building sit in
// the log; when there are any, the new base is unfrozen — also outside
// the lock, since Unfreeze is O(n + m) — and the log is folded into it
// with ApplyOps under the lock, so the swapped-in view carries every
// acknowledged update and stays on the in-place path. A rebuild no
// write raced swaps in frozen; the next apply unfreezes it.
func (st *Store) rebuild(src *view, done chan struct{}) {
	defer close(done)
	R, S := src.points()
	nv, err := st.buildView(R, S) // the expensive bulk build, outside mu
	if st.testHookBuilt != nil {
		st.testHookBuilt()
	}

	st.mu.Lock()
	if err == nil && nv.mut == nil && len(st.log) > 0 {
		st.mu.Unlock()
		var m *core.Mutable
		if m, err = nv.base.Unfreeze(); err == nil {
			nv = &view{mut: m, owned: true}
		}
		st.mu.Lock()
	}
	st.rebuilding = false
	pending := st.log
	st.log = nil
	for i := 0; err == nil && i < len(pending); i++ {
		nv.mut, err = nv.mut.Apply(mutOps(pending[i]))
	}
	if err == nil {
		cur := st.view.Load()
		nv.gen, nv.lastID = cur.gen+1, cur.lastID
		if nv.mut != nil {
			nv.size = nv.mut.SizeBytes()
		}
		err = st.finishView(nv)
	}
	if err != nil {
		st.lastRebuildErr = err
		st.mu.Unlock()
		return
	}
	st.lastRebuildErr = nil
	st.rebuilds.Add(1)
	st.swapLocked(nv)
	// The folded tail can itself trip the skew hatch under heavy write
	// load; check once so compaction keeps up.
	st.maybeRebuildLocked(nv)
	p := st.cfg.Persister
	st.mu.Unlock()
	if p == nil {
		return
	}
	// Persist the compacted base outside the lock. The snapshot covers
	// the *source view's* lastID, not the swap-time one: the folded
	// tail is still in the write-ahead log (pruning stops at
	// src.lastID), so a crash right here replays it onto this base.
	err = p.Snapshot(nv.gen, src.lastID, R, S)
	if err != nil {
		st.persistErrs.Add(1)
	}
	st.mu.Lock()
	st.lastPersistErr = err
	st.mu.Unlock()
}

// maybeSnapshotLocked schedules a background snapshot of a mutable
// view once the write-ahead records since the last snapshot reach
// snapshotFraction of the live point count. Without it the log would
// never be pruned: steady churn runs no rebuilds, and a rebuild swap
// is the only other snapshot trigger. Called with mu held.
func (st *Store) maybeSnapshotLocked(v *view) {
	p := st.cfg.Persister
	if p == nil || v.mut == nil || st.snapshotting || st.rebuilding {
		return
	}
	ix := v.mut.Index()
	if float64(st.snapPending) < snapshotFraction*float64(ix.NumR()+ix.NumS()) {
		return
	}
	st.snapPending = 0
	st.snapshotting = true
	st.snapDone = make(chan struct{})
	go st.snapshot(v, p)
}

// snapshot persists one mutable view's live point sets, outside the
// lock — the version is immutable, so appliers keep deriving new
// versions while it is read. The snapshot covers everything folded
// into v (all records <= v.lastID): the log prunes up to there.
func (st *Store) snapshot(v *view, p Persister) {
	R, S := v.mut.LivePoints()
	err := p.Snapshot(v.gen, v.lastID, R, S)
	if err != nil {
		st.persistErrs.Add(1)
	}
	st.mu.Lock()
	st.snapshotting = false
	st.lastPersistErr = err
	close(st.snapDone)
	// Records applied while this snapshot ran can already exceed the
	// cadence under heavy write load; check once so pruning keeps up.
	st.maybeSnapshotLocked(st.view.Load())
	st.mu.Unlock()
}

// Compact forces a base rebuild now — folding the whole in-place
// maintained state into a fresh bulk build — and waits for the swap.
// A rebuild already in flight is waited for instead of doubled. It
// returns nil with nothing to do when the current view is a frozen
// bulk build.
func (st *Store) Compact(ctx context.Context) error {
	st.mu.Lock()
	if !st.rebuilding {
		v := st.view.Load()
		if v.mut == nil {
			st.mu.Unlock()
			return nil
		}
		st.startRebuildLocked(v)
	}
	done := st.rebuildDone
	st.mu.Unlock()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastRebuildErr
}

// SetOnGeneration installs (or replaces) the Config.OnGeneration
// hook. Callers that build stores through an intermediate layer (the
// root package's NewStore) use it to attach cache invalidation after
// construction — before the store is published for serving, or the
// earliest swaps may miss the hook.
func (st *Store) SetOnGeneration(fn func(gen uint64)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cfg.OnGeneration = fn
}

// Generation reports the current generation: 0 at construction,
// bumped by every non-empty Apply and every completed rebuild swap.
func (st *Store) Generation() uint64 { return st.view.Load().gen }

// ViewEngine returns the current generation and its serving engine.
// The error is core.ErrEmptyJoin when the current join is empty. The
// registry's BuildFunc uses the pair to cache view engines under
// generation-tagged keys.
func (st *Store) ViewEngine() (uint64, *engine.Engine, error) {
	v := st.view.Load()
	if v.eng == nil {
		return v.gen, nil, core.ErrEmptyJoin
	}
	return v.gen, v.eng, nil
}

// Draw serves one request against the current view (the srj.Source
// contract, like engine.Engine.Draw). On an empty join the request is
// still validated and capped first, then core.ErrEmptyJoin surfaces.
func (st *Store) Draw(ctx context.Context, req engine.Request) (engine.Result, error) {
	v := st.view.Load()
	if v.eng == nil {
		return engine.Result{}, st.emptyErr(req, false)
	}
	return v.eng.Draw(ctx, req)
}

// DrawFunc serves one request against the current view, streaming
// batches to fn (the srj.Source contract).
func (st *Store) DrawFunc(ctx context.Context, req engine.Request, fn func(batch []geom.Pair) error) error {
	v := st.view.Load()
	if v.eng == nil {
		return st.emptyErr(req, true)
	}
	return v.eng.DrawFunc(ctx, req, fn)
}

// emptyErr orders an empty store's refusals like a serving engine
// would: malformed requests first, the cap second, ErrEmptyJoin last.
func (st *Store) emptyErr(req engine.Request, stream bool) error {
	var t int
	var err error
	if stream {
		t, err = req.ResolveStream()
	} else {
		t, err = req.Resolve()
	}
	if err != nil {
		return err
	}
	if st.cfg.MaxT > 0 && t > st.cfg.MaxT {
		return fmt.Errorf("%w: t=%d > cap %d", engine.ErrSampleCap, t, st.cfg.MaxT)
	}
	return core.ErrEmptyJoin
}

// Stats aggregates the serving counters across every view the store
// has published. Under concurrent generation swaps the snapshot is
// approximate: requests finishing on a just-retired view after its
// counters were folded go uncounted.
func (st *Store) Stats() engine.Stats {
	st.mu.Lock()
	acc := st.acc
	st.mu.Unlock()
	if v := st.view.Load(); v != nil && v.eng != nil {
		acc = addStats(acc, v.eng.Stats())
	}
	return acc
}

// SizeBytes estimates the retained footprint of the current view: its
// index structures — charged here whether or not the view built them,
// so resident structures are counted exactly once — plus the point
// slices a frozen base was built over. During a rebuild the transient
// next base is not counted.
func (st *Store) SizeBytes() int {
	v := st.view.Load()
	return v.size + 24*(len(v.R)+len(v.S))
}

// Rebuilds reports how many base rebuilds have swapped in since the
// store was created.
func (st *Store) Rebuilds() uint64 { return st.rebuilds.Load() }

// InPlaceOps reports how many operations were absorbed by in-place
// index maintenance since the store was created.
func (st *Store) InPlaceOps() uint64 { return st.inplace.Load() }

// InPlace reports whether the current view is served by the in-place
// maintained index (vs a frozen bulk-built base).
func (st *Store) InPlace() bool { return st.view.Load().mut != nil }

// LastRebuildErr reports the most recent background rebuild failure
// (nil after a successful swap). Rebuild failures never tear down
// serving — the previous view keeps answering.
func (st *Store) LastRebuildErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastRebuildErr
}

// EstimateJoinSize draws `samples` calibration samples through the
// current view's estimator clone and returns the acceptance-rate
// estimate of the live join size. The estimator accumulates across
// calls, so repeated estimates tighten. An empty join estimates 0
// with no error.
func (st *Store) EstimateJoinSize(samples int) (float64, error) {
	v := st.view.Load()
	if v.eng == nil || v.est == nil {
		return 0, nil
	}
	v.estMu.Lock()
	defer v.estMu.Unlock()
	buf := make([]geom.Pair, 1024)
	var err error
	for drawn := 0; drawn < samples && err == nil; {
		chunk := buf
		if rem := samples - drawn; rem < len(chunk) {
			chunk = chunk[:rem]
		}
		var n int
		n, err = core.SampleInto(v.est, chunk)
		drawn += n
	}
	stats := v.est.Stats()
	stats.MuSum = v.mass()
	return aggregate.JoinSizeEstimate(stats), err
}

// PersistErrors reports how many snapshot attempts have failed since
// the store was created (see the persistErrs field).
func (st *Store) PersistErrors() uint64 { return st.persistErrs.Load() }

// Dump snapshots the store's complete logical state: the current
// generation, the last applied update ID, and the live point sets at
// that moment. The returned slices are freshly materialized — callers
// own them. This is the donor half of router state transfer: a store
// constructed from (R, S) at (gen, lastID) and fed the sequenced
// updates after lastID converges on this store's *logical* state —
// the same live points and sequence position. Byte-level draw
// identity is a stronger property that holds only between stores
// sharing the same build history (base build plus the same in-place
// applies in the same order); a store bulk-built from a flattened
// dump serves correct draws, not necessarily this store's draws.
func (st *Store) Dump() (gen, lastID uint64, R, S []geom.Point) {
	v := st.view.Load()
	R, S = v.points()
	if v.mut == nil {
		// A frozen view's sets are shared with its base.
		R, S = slices.Clone(R), slices.Clone(S)
	}
	return v.gen, v.lastID, R, S
}

// SnapshotNow persists the store's state through its persister
// synchronously when that can be done *faithfully* — the shutdown
// path's bound on recovery time. Faithful means recovery from the
// snapshot reproduces the exact sampler a live peer at the same
// generation carries, which holds only when the current view is a
// frozen bulk build: snapshotting an in-place view would flatten its
// incremental history into a fresh bulk build, and seeded draws after
// recovery would fork from fleet peers at the same generation.
// In-place stores succeed as a no-op — the write-ahead log already
// holds every record past the last faithful snapshot, and replay
// rebuilds the identical incremental history. In-flight background
// persistence is waited out first, so a snapshot the cadence already
// started is on disk before shutdown returns. A store without a
// persister succeeds as a no-op.
func (st *Store) SnapshotNow(ctx context.Context) error {
	st.mu.Lock()
	p := st.cfg.Persister
	st.mu.Unlock()
	if p == nil {
		return nil
	}
	if err := st.quiesce(ctx); err != nil {
		return err
	}
	v := st.view.Load()
	if v.mut != nil {
		return nil
	}
	err := p.Snapshot(v.gen, v.lastID, v.R, v.S)
	if err != nil {
		st.persistErrs.Add(1)
	}
	st.mu.Lock()
	st.lastPersistErr = err
	if err == nil {
		st.snapPending = 0
	}
	st.mu.Unlock()
	return err
}

// quiesce waits for an in-flight background rebuild (tests and
// shutdown paths); it does not prevent new ones.
func (st *Store) quiesce(ctx context.Context) error {
	for {
		st.mu.Lock()
		var done chan struct{}
		switch {
		case st.rebuilding:
			done = st.rebuildDone
		case st.snapshotting:
			done = st.snapDone
		}
		st.mu.Unlock()
		if done == nil {
			return nil
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Quiesce waits for any in-flight background rebuild to finish —
// benchmarks and tests use it so goroutine-leak checks and timing
// sections see a settled store.
func (st *Store) Quiesce(ctx context.Context) error { return st.quiesce(ctx) }
