package core

import (
	"fmt"

	"repro/internal/alias"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rng"
	"repro/internal/rtree"
)

// pointIndex abstracts the spatial index used by the exact-counting
// baselines: the kd-tree for KDS (the paper's baseline) and the
// aggregate R-tree for the RTS ablation.
type pointIndex interface {
	// Build indexes S; called once in the offline phase.
	Build(S []geom.Point)
	// Count returns |S(w)| exactly.
	Count(w geom.Rect) int
	// Sample draws a uniform point of S(w) and returns the exact
	// count; ok is false when S(w) is empty.
	Sample(w geom.Rect, r *rng.RNG) (pt geom.Point, count int, ok bool)
	// SizeBytes estimates the index footprint.
	SizeBytes() int
	// clone returns a handle sharing the immutable tree with fresh
	// scratch buffers, for concurrent use.
	clone() pointIndex
}

// kdIndex adapts kdtree.Tree to pointIndex.
type kdIndex struct {
	tree    *kdtree.Tree
	scratch kdtree.Scratch
}

func (k *kdIndex) Build(S []geom.Point) { k.tree = kdtree.New(S) }
func (k *kdIndex) Count(w geom.Rect) int {
	return k.tree.Count(w)
}
func (k *kdIndex) Sample(w geom.Rect, r *rng.RNG) (geom.Point, int, bool) {
	return k.tree.Sample(w, r, &k.scratch)
}
func (k *kdIndex) SizeBytes() int {
	if k.tree == nil {
		return 0
	}
	return k.tree.SizeBytes()
}

// rIndex adapts rtree.Tree to pointIndex.
type rIndex struct {
	tree    *rtree.Tree
	scratch rtree.Scratch
}

func (k *rIndex) Build(S []geom.Point) { k.tree = rtree.New(S) }
func (k *rIndex) Count(w geom.Rect) int {
	return k.tree.Count(w)
}
func (k *rIndex) Sample(w geom.Rect, r *rng.RNG) (geom.Point, int, bool) {
	return k.tree.Sample(w, r, &k.scratch)
}
func (k *rIndex) SizeBytes() int {
	if k.tree == nil {
		return 0
	}
	return k.tree.SizeBytes()
}

// KDS is the first baseline (Section III-A): it range-counts
// |S(w(r))| exactly for every r ∈ R (O(n sqrt m)), builds a Walker
// alias over the counts, and then draws each join sample by one alias
// draw plus one O(sqrt m) independent range sample — every iteration
// accepts.
type KDS struct {
	*base
	index pointIndex
	tab   *alias.Table
}

// NewKDS builds the baseline-1 sampler over R and S.
func NewKDS(R, S []geom.Point, cfg Config) (*KDS, error) {
	b, err := newBase("KDS", R, S, cfg)
	if err != nil {
		return nil, err
	}
	return &KDS{base: b, index: &kdIndex{}}, nil
}

// NewRTS builds the aggregate-R-tree ablation of baseline 1; it is
// identical to KDS except for the index structure.
func NewRTS(R, S []geom.Point, cfg Config) (*KDS, error) {
	b, err := newBase("RTS", R, S, cfg)
	if err != nil {
		return nil, err
	}
	return &KDS{base: b, index: &rIndex{}}, nil
}

// Preprocess builds the spatial index over S (the offline phase of
// Table II).
func (k *KDS) Preprocess() error {
	if k.state >= phasePreprocessed {
		return k.err
	}
	timed(&k.stats.PreprocessTime, func() {
		k.index.Build(k.S)
	})
	k.state = phasePreprocessed
	return nil
}

// Build is a no-op: baseline 1 uses no grid.
func (k *KDS) Build() error {
	if err := ensure(k, k.base, phasePreprocessed); err != nil {
		return err
	}
	if k.state < phaseBuilt {
		k.state = phaseBuilt
	}
	return nil
}

// Count runs the exact range counting over all of R and builds the
// alias (steps 1–2 of the baseline).
func (k *KDS) Count() error {
	if err := ensure(k, k.base, phaseBuilt); err != nil {
		return err
	}
	if k.state >= phaseCounted {
		return k.err
	}
	var buildErr error
	timed(&k.stats.UpperBoundTime, func() {
		weights := make([]float64, len(k.R))
		total := 0.0
		for i, r := range k.R {
			c := float64(k.index.Count(k.window(r)))
			weights[i] = c
			total += c
		}
		k.stats.MuSum = total
		if total == 0 {
			buildErr = ErrEmptyJoin
			return
		}
		k.tab, buildErr = alias.New(weights)
	})
	if buildErr != nil {
		k.err = buildErr
		return buildErr
	}
	k.state = phaseCounted
	return nil
}

// Next draws one join sample: alias-weighted r, then a uniform
// in-window s. For KDS the counts are exact, so every iteration
// accepts (modulo the without-replacement filter).
func (k *KDS) Next() (geom.Pair, error) {
	if err := ensure(k, k.base, phaseCounted); err != nil {
		return geom.Pair{}, err
	}
	var out geom.Pair
	var err error
	timed(&k.stats.SampleTime, func() {
		for attempt := 0; attempt < k.cfg.maxRejects(); attempt++ {
			if p, ok := k.tryOnce(); ok {
				out = p
				return
			}
		}
		err = ErrLowAcceptance
	})
	return out, err
}

// tryOnce is one sampling iteration: alias-weighted r, uniform
// in-window s. Exact counts mean it only rejects through the
// without-replacement filter.
func (k *KDS) tryOnce() (geom.Pair, bool) {
	k.stats.Iterations++
	r := k.R[k.tab.Sample(k.rng)]
	s, _, ok := k.index.Sample(k.window(r), k.rng)
	if !ok {
		// Impossible with exact counts; defensive.
		return geom.Pair{}, false
	}
	p := geom.Pair{R: r, S: s}
	if !k.accept(p) {
		return geom.Pair{}, false
	}
	k.stats.Samples++
	return p, true
}

// Sample draws t samples via Next.
func (k *KDS) Sample(t int) ([]geom.Pair, error) { return sampleN(k, k.base, t) }

// SizeBytes reports index + alias footprint.
func (k *KDS) SizeBytes() int {
	total := k.index.SizeBytes()
	if k.tab != nil {
		total += k.tab.SizeBytes()
	}
	return total
}

var _ Sampler = (*KDS)(nil)

// String aids debugging.
func (k *KDS) String() string {
	return fmt.Sprintf("%s{n=%d, m=%d, l=%g}", k.name, len(k.R), len(k.S), k.cfg.HalfExtent)
}

// clone returns an index handle sharing the tree with fresh scratch.
func (k *kdIndex) clone() pointIndex { return &kdIndex{tree: k.tree} }

// clone returns an index handle sharing the tree with fresh scratch.
func (k *rIndex) clone() pointIndex { return &rIndex{tree: k.tree} }

// Clone prepares the sampler and returns an independent handle over
// the same kd-tree/alias for concurrent sampling.
func (k *KDS) Clone() (Sampler, error) {
	if err := ensure(k, k.base, phaseCounted); err != nil {
		return nil, err
	}
	nb, err := k.base.cloneBase()
	if err != nil {
		return nil, err
	}
	return &KDS{base: nb, index: k.index.clone(), tab: k.tab}, nil
}
