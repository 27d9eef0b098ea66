package srj

// The mutable-dataset surface. A Sampler and an Engine are bulk-built
// over immutable R and S; a Store is the same amortization argument
// made mutable. It serves the bulk-built BBST structures until the
// first Apply converts them once into an incrementally-maintained
// index; from then on every batch edits that index copy-on-write in
// Õ(ops), and draws stay uniform over the *live* join (see
// internal/dynamic). Every applied batch bumps the dataset's
// generation number, which is what invalidates caches across the
// serving stack: srjserver keys its engine registry by generation,
// and the shard router broadcasts updates so every shard advances
// together. Only BBST has a mutable form: the other algorithms are
// the paper's static baselines and serve static draws only.

import (
	"context"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/server"
)

// Update is one batch of mutations applied to a Store (or, through
// Client.Apply / Router.Bind().Apply, to a remote store): points to
// insert and point IDs to delete, per side. Deleting an ID removes
// every live point carrying it on that side; an absent ID is a
// no-op; re-inserting a deleted ID is allowed. The zero Update is
// empty and acts as a generation probe.
type Update = dynamic.Update

// ErrStaleGeneration reports a draw that raced a concurrent update:
// the engine it hit was built for a dataset generation that an
// applied batch has since retired. Remote callers see it too — the
// server maps it to wire code "stale_generation" (HTTP 409) — and
// the fix is the same locally and remotely: retry against the
// current generation.
var ErrStaleGeneration = dynamic.ErrStaleGeneration

// StoreOptions tunes a Store's BBST structures; the zero value (or
// nil) uses seed 0 and the default tuning.
type StoreOptions struct {
	// Seed drives the structures and the serving pools; equal seeds
	// make equal-seeded draws reproducible within one generation.
	Seed uint64
	// MaxRejects bounds consecutive rejected sampling iterations
	// (0 = default budget).
	MaxRejects int
	// FractionalCascading and BucketCap tune the BBST structures
	// exactly as in Options.
	FractionalCascading bool
	BucketCap           int
	// MaxT caps the samples one request may ask for (0 = unlimited),
	// like Engine.SetMaxT.
	MaxT int
	// DisableAutoRebuild suppresses the background rebuild that fires
	// when the live point count drifts far from the bulk build's;
	// Compact still works on demand.
	DisableAutoRebuild bool

	// Recovery knobs, set by NewServer when it rebuilds a store from a
	// snapshot: the generation and update ID the snapshot was taken at.
	// Unexported on purpose — callers outside this package construct
	// stores at generation 0 and recover through ServerOptions.DataDir.
	initialGeneration  uint64
	initialLastApplied uint64
}

// Store is a mutable join-sampling dataset: the fourth Source
// implementation, next to Engine, Client.Bind, and Router.Bind —
// plus Apply, the mutation half. All methods are safe for concurrent
// use; draws never block on writers.
type Store struct {
	st *dynamic.Store
}

// NewStore validates R and S, bulk-builds the BBST structures, and
// returns a Store serving them at generation 0. Unlike NewEngine,
// empty inputs (even a provably empty join) are accepted: a mutable
// dataset may start empty and be filled through Apply, with Draw
// answering ErrEmptyJoin until it is. The slices are not copied and
// must not be mutated afterwards — all mutation goes through Apply,
// which never touches them.
func NewStore(R, S []Point, l float64, opts *StoreOptions) (*Store, error) {
	var o StoreOptions
	if opts != nil {
		o = *opts
	}
	cfg := core.Config{
		HalfExtent:          l,
		Seed:                o.Seed,
		MaxRejects:          o.MaxRejects,
		FractionalCascading: o.FractionalCascading,
		BucketCap:           o.BucketCap,
	}
	st, err := dynamic.NewStore(R, S, dynamic.Config{
		BuildBase: func(R, S []Point) (*core.BBSTSampler, error) {
			return core.NewBBST(R, S, cfg)
		},
		Seed:               o.Seed,
		MaxT:               o.MaxT,
		DisableAutoRebuild: o.DisableAutoRebuild,
		InitialGeneration:  o.initialGeneration,
		InitialLastApplied: o.initialLastApplied,
	})
	if err != nil {
		return nil, err
	}
	return &Store{st: st}, nil
}

// Apply absorbs one batch of mutations and returns the new dataset
// generation. Batches serialize; draws in flight keep serving the
// snapshot they started on. An empty update returns the current
// generation without bumping it. Apply edits the index in place in
// Õ(ops) and never pays a bulk build; the first Apply after a build
// pays the one-time conversion into the maintained index.
func (s *Store) Apply(ctx context.Context, u Update) (uint64, error) {
	return s.st.Apply(ctx, u)
}

// Draw serves one request against the current generation. See Source
// for the contract shared with Engine, Client, and Router.
func (s *Store) Draw(ctx context.Context, req Request) (Result, error) {
	return s.st.Draw(ctx, req)
}

// DrawFunc serves one request against the current generation,
// streaming batches to fn. One request is served by one snapshot: an
// Apply landing mid-stream never mixes generations within a draw.
func (s *Store) DrawFunc(ctx context.Context, req Request, fn func(batch []Pair) error) error {
	return s.st.DrawFunc(ctx, req, fn)
}

// Bind returns the store typed as its Source view, for symmetry with
// Client.Bind and Router.Bind (a Store serves exactly one dataset, so
// there is no key to fix).
func (s *Store) Bind() Source { return s }

// Generation reports the current dataset generation: 0 at
// construction, bumped by every non-empty Apply and every completed
// compaction.
func (s *Store) Generation() uint64 { return s.st.Generation() }

// Compact folds the in-place maintained index into a fresh bulk build
// now and waits for the swap — the only planned rebuild (the other is
// the background one when the live point count drifts far from the
// bulk build's).
func (s *Store) Compact(ctx context.Context) error { return s.st.Compact(ctx) }

// InPlaceOps reports how many operations were absorbed by in-place
// index maintenance — the Õ(ops) write path that edits the live
// structures copy-on-write.
func (s *Store) InPlaceOps() uint64 { return s.st.InPlaceOps() }

// Rebuilds reports how many base rebuilds have swapped in. In steady
// churn it stays 0: rebuilds happen only on Compact or when dataset
// geometry drifts far from the bulk build.
func (s *Store) Rebuilds() uint64 { return s.st.Rebuilds() }

// Stats aggregates serving counters across all generations served so
// far.
func (s *Store) Stats() EngineStats { return s.st.Stats() }

// SizeBytes estimates the retained footprint of the current
// generation's structures.
func (s *Store) SizeBytes() int { return s.st.SizeBytes() }

// EstimateJoinSize estimates the live join size |J| from `samples`
// calibration draws — the mutable sibling of EstimateJoinSize over a
// Sampler. An empty join estimates 0.
func (s *Store) EstimateJoinSize(samples int) (float64, error) {
	return s.st.EstimateJoinSize(samples)
}

// Quiesce waits for any in-flight background compaction, so
// benchmarks and tests can time or assert against a settled store.
func (s *Store) Quiesce(ctx context.Context) error { return s.st.Quiesce(ctx) }

// Apply posts one update batch against the bound engine key's remote
// store and returns the new dataset generation — the remote half of
// Store.Apply, served by POST /v1/update. The batch travels in the
// framed binary encoding. Requires a bound client (see Bind);
// ErrUnbound otherwise.
func (c *Client) Apply(ctx context.Context, u Update) (uint64, error) {
	if !c.bound {
		return 0, ErrUnbound
	}
	resp, err := c.Client.ApplyUpdate(ctx, server.UpdateRequest{
		Dataset:   c.key.Dataset,
		L:         c.key.L,
		Algorithm: c.key.Algorithm,
		Seed:      c.key.Seed,
		InsertR:   u.InsertR,
		InsertS:   u.InsertS,
		DeleteR:   u.DeleteR,
		DeleteS:   u.DeleteS,
	})
	return resp.Generation, err
}

// Compile-time check: the Store is the fourth Source.
var _ Source = (*Store)(nil)
