package core

import (
	"sort"

	"repro/internal/alias"
	"repro/internal/bbst"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rng"
)

// cornerIndex is the per-cell structure that answers the 2-sided
// (case 3) corner queries: the two BBSTs of the paper, or the per-cell
// kd-tree of the Fig. 9 ablation.
type cornerIndex interface {
	// mu returns the (upper-bound) count of cell points matching the
	// corner constraint of w.
	mu(c bbst.Corner, w geom.Rect) int
	// sample draws one candidate slot for the corner; ok is false on
	// an empty slot. The caller still verifies window membership.
	sample(c bbst.Corner, w geom.Rect, r *rng.RNG) (geom.Point, bool)
	// sizeBytes estimates the structure footprint.
	sizeBytes() int
	// clone returns a handle sharing the immutable structure with
	// fresh scratch buffers, for concurrent use.
	clone() cornerIndex
}

// cornerFor maps a case-3 grid direction to its BBST corner query.
func cornerFor(d grid.Direction) bbst.Corner {
	switch d {
	case grid.SouthWest:
		return bbst.SouthWest
	case grid.NorthWest:
		return bbst.NorthWest
	case grid.SouthEast:
		return bbst.SouthEast
	case grid.NorthEast:
		return bbst.NorthEast
	}
	panic("core: direction is not a corner")
}

// gridSampler is the shared three-phase pipeline of Algorithm 1,
// parameterized by the case-3 structure. The BBST and GridKD samplers
// are thin wrappers around it.
type gridSampler struct {
	*base
	newCorner func(cellPoints []geom.Point, m int) cornerIndex

	sortedS []geom.Point // copy of S sorted by x (offline phase)
	g       *grid.Grid
	corners map[grid.Key]cornerIndex

	tab       *alias.Table  // alias over µ(r)
	cellAlias []alias.Small // A_r: per-point alias over the 9 cells
	mu        []float64     // µ(r) per point, retained for Unfreeze
}

// Preprocess sorts a copy of S by x — the only offline work the
// BBST pipeline needs (Table II notes this is why its pre-processing
// is cheaper than building a kd-tree).
func (g *gridSampler) Preprocess() error {
	if g.state >= phasePreprocessed {
		return g.err
	}
	timed(&g.stats.PreprocessTime, func() {
		g.sortedS = append([]geom.Point(nil), g.S...)
		sort.Slice(g.sortedS, func(i, j int) bool { return g.sortedS[i].X < g.sortedS[j].X })
	})
	g.state = phasePreprocessed
	return nil
}

// Build is the online data-structure building phase (GM): grid
// mapping of S plus per-cell corner structures (BBST-BUILDING).
func (g *gridSampler) Build() error {
	if err := ensure(g, g.base, phasePreprocessed); err != nil {
		return err
	}
	if g.state >= phaseBuilt {
		return g.err
	}
	var buildErr error
	timed(&g.stats.GridMapTime, func() {
		g.g, buildErr = grid.Build(g.sortedS, g.cfg.HalfExtent)
		if buildErr != nil {
			return
		}
		g.corners = make(map[grid.Key]cornerIndex, g.g.NumCells())
		m := len(g.S)
		g.g.Cells(func(c *grid.Cell) {
			g.corners[c.Key] = g.newCorner(c.XSorted, m)
		})
	})
	if buildErr != nil {
		g.err = buildErr
		return buildErr
	}
	g.state = phaseBuilt
	return nil
}

// muDir computes µ(r, d): exact counts for cases 1 and 2, the corner
// structure's bound for case 3 (UPPER-BOUNDING in Algorithm 1).
func (g *gridSampler) muDir(c *grid.Cell, d grid.Direction, w geom.Rect) int {
	switch d {
	case grid.Center:
		return c.Len()
	case grid.West:
		n, _ := c.CountXAtLeast(w.XMin)
		return n
	case grid.East:
		return c.CountXAtMost(w.XMax)
	case grid.South:
		n, _ := c.CountYAtLeast(w.YMin)
		return n
	case grid.North:
		return c.CountYAtMost(w.YMax)
	default:
		return g.corners[c.Key].mu(cornerFor(d), w)
	}
}

// Count is the approximate range counting phase (UB): µ(r) per point,
// the per-point cell alias A_r, and the global alias A.
func (g *gridSampler) Count() error {
	if err := ensure(g, g.base, phaseBuilt); err != nil {
		return err
	}
	if g.state >= phaseCounted {
		return g.err
	}
	var buildErr error
	timed(&g.stats.UpperBoundTime, func() {
		n := len(g.R)
		mu := make([]float64, n)
		g.cellAlias = make([]alias.Small, n)
		total := 0.0
		var nb [grid.NumDirections]*grid.Cell
		var weights [grid.NumDirections]float64
		for i, r := range g.R {
			w := g.window(r)
			g.g.Neighborhood(r, &nb)
			sum := 0.0
			for d := grid.Direction(0); d < grid.NumDirections; d++ {
				weights[d] = 0
				if nb[d] == nil {
					continue
				}
				v := float64(g.muDir(nb[d], d, w))
				weights[d] = v
				sum += v
			}
			mu[i] = sum
			total += sum
			g.cellAlias[i].Reset(weights[:])
		}
		g.stats.MuSum = total
		g.mu = mu
		if total == 0 {
			buildErr = ErrEmptyJoin
			return
		}
		g.tab, buildErr = alias.New(mu)
	})
	if buildErr != nil {
		g.err = buildErr
		return buildErr
	}
	g.state = phaseCounted
	return nil
}

// sampleDir draws one candidate point from cell c in direction d.
// Cases 1 and 2 are exact, so the candidate always lies in w; case 3
// may return an empty slot or an out-of-window point, which the
// caller rejects.
func (g *gridSampler) sampleDir(c *grid.Cell, d grid.Direction, w geom.Rect) (geom.Point, bool) {
	switch d {
	case grid.Center:
		return c.XSorted[g.rng.Intn(c.Len())], true
	case grid.West:
		n, start := c.CountXAtLeast(w.XMin)
		if n == 0 {
			return geom.Point{}, false
		}
		return c.XSorted[start+g.rng.Intn(n)], true
	case grid.East:
		n := c.CountXAtMost(w.XMax)
		if n == 0 {
			return geom.Point{}, false
		}
		return c.XSorted[g.rng.Intn(n)], true
	case grid.South:
		n, start := c.CountYAtLeast(w.YMin)
		if n == 0 {
			return geom.Point{}, false
		}
		return c.YSorted[start+g.rng.Intn(n)], true
	case grid.North:
		n := c.CountYAtMost(w.YMax)
		if n == 0 {
			return geom.Point{}, false
		}
		return c.YSorted[g.rng.Intn(n)], true
	default:
		return g.corners[c.Key].sample(cornerFor(d), w, g.rng)
	}
}

// tryOnce is one iteration of the sampling phase (lines 10–15 of
// Algorithm 1): weighted r, weighted cell, uniform slot, accept iff
// the slot holds a point of w(r). Every pair of J is accepted with
// probability exactly 1/Σµ per trial.
func (g *gridSampler) tryOnce(nb *[grid.NumDirections]*grid.Cell) (geom.Pair, bool) {
	g.stats.Iterations++
	ri := g.tab.Sample(g.rng)
	ca := &g.cellAlias[ri]
	if ca.Len() == 0 {
		return geom.Pair{}, false // µ(r) == 0; alias weight 0 makes this unreachable
	}
	r := g.R[ri]
	w := g.window(r)
	d := grid.Direction(ca.Sample(g.rng))
	g.g.Neighborhood(r, nb)
	c := nb[d]
	if c == nil {
		return geom.Pair{}, false // zero-weight direction; defensive
	}
	s, ok := g.sampleDir(c, d, w)
	if !ok || !w.Contains(s) {
		return geom.Pair{}, false // empty slot or out-of-window candidate
	}
	p := geom.Pair{R: r, S: s}
	if !g.accept(p) {
		return geom.Pair{}, false
	}
	g.stats.Samples++
	return p, true
}

// next drives tryOnce under the rejection budget.
func (g *gridSampler) next(self phased) (geom.Pair, error) {
	if err := ensure(self, g.base, phaseCounted); err != nil {
		return geom.Pair{}, err
	}
	var out geom.Pair
	var err error
	timed(&g.stats.SampleTime, func() {
		var nb [grid.NumDirections]*grid.Cell
		for attempt := 0; attempt < g.cfg.maxRejects(); attempt++ {
			if p, ok := g.tryOnce(&nb); ok {
				out = p
				return
			}
		}
		err = ErrLowAcceptance
	})
	return out, err
}

// cloneGrid derives an independent gridSampler over the same immutable
// structures (grid, corner indexes, aliases): fresh base (split RNG,
// fresh stats) and fresh corner scratch buffers.
func (g *gridSampler) cloneGrid(self phased) (gridSampler, error) {
	if err := ensure(self, g.base, phaseCounted); err != nil {
		return gridSampler{}, err
	}
	nb, err := g.base.cloneBase()
	if err != nil {
		return gridSampler{}, err
	}
	corners := make(map[grid.Key]cornerIndex, len(g.corners))
	for k, ci := range g.corners {
		corners[k] = ci.clone()
	}
	return gridSampler{
		base:      nb,
		newCorner: g.newCorner,
		sortedS:   g.sortedS,
		g:         g.g,
		corners:   corners,
		tab:       g.tab,
		cellAlias: g.cellAlias,
	}, nil
}

// sizeBytes sums the pipeline structures: grid, corner structures,
// global alias, and per-point cell aliases.
func (g *gridSampler) sizeBytes() int {
	total := 0
	if g.g != nil {
		total += g.g.SizeBytes()
	}
	for _, ci := range g.corners {
		total += ci.sizeBytes()
	}
	if g.tab != nil {
		total += g.tab.SizeBytes()
	}
	total += 96 * len(g.cellAlias)
	total += 24 * len(g.sortedS)
	return total
}
