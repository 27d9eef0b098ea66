package core

import (
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/rng"
)

// kdCorner answers case-3 queries with a per-cell kd-tree: exact
// counting via Count and exact sampling via the KDS primitive. This is
// the variant the paper compares against in Fig. 9 to isolate the
// benefit of the BBST structure.
type kdCorner struct {
	tree    *kdtree.Tree
	scratch kdtree.Scratch
}

// cornerRegion clips the corner constraint into a rectangle; the cell
// contains only its own points, so querying the half-open constraint
// region is equivalent to querying w(r) within the cell.
func cornerRegion(c bbst.Corner, w geom.Rect) geom.Rect {
	// The opposite two sides of the window lie outside the corner
	// cell, so they never exclude a cell point; use the full window.
	return w
}

func (k *kdCorner) mu(c bbst.Corner, w geom.Rect) int {
	return k.tree.Count(cornerRegion(c, w))
}

func (k *kdCorner) sample(c bbst.Corner, w geom.Rect, r *rng.RNG) (geom.Point, bool) {
	pt, _, ok := k.tree.Sample(cornerRegion(c, w), r, &k.scratch)
	return pt, ok
}

func (k *kdCorner) sizeBytes() int { return k.tree.SizeBytes() }

func (k *kdCorner) clone() cornerIndex { return &kdCorner{tree: k.tree} }

// GridKD is the Fig. 9 ablation of the proposed algorithm: the same
// grid pipeline (exact cases 1–2) but with one kd-tree per cell in
// place of the two BBSTs, sampled with KDS. Counting and sampling at
// the corners cost O(sqrt |S(c)|) instead of Õ(1); the paper reports
// BBST beating this variant by up to 12x.
type GridKD struct {
	gridSampler
}

// NewGridKD builds the kd-tree-per-cell variant over R and S.
func NewGridKD(R, S []geom.Point, cfg Config) (*GridKD, error) {
	b, err := newBase("GridKD", R, S, cfg)
	if err != nil {
		return nil, err
	}
	s := &GridKD{gridSampler{base: b}}
	s.newCorner = func(cellPoints []geom.Point, m int) cornerIndex {
		return &kdCorner{tree: kdtree.New(cellPoints)}
	}
	return s, nil
}

// Next draws one uniform independent join sample.
func (s *GridKD) Next() (geom.Pair, error) { return s.next(s) }

// Sample draws t samples via Next.
func (s *GridKD) Sample(t int) ([]geom.Pair, error) { return sampleN(s, s.base, t) }

// SizeBytes reports the pipeline footprint.
func (s *GridKD) SizeBytes() int { return s.sizeBytes() }

// Clone prepares the sampler and returns an independent handle over
// the same grid/kd-tree/alias structures for concurrent sampling.
func (s *GridKD) Clone() (Sampler, error) {
	gs, err := s.cloneGrid(s)
	if err != nil {
		return nil, err
	}
	return &GridKD{gs}, nil
}

var (
	_ Sampler = (*GridKD)(nil)
	_ Cloner  = (*GridKD)(nil)
)
