package alias

// Weights is the mutable sibling of Table: a persistent (path-copied)
// binary sum tree over a growable weight vector. Where Walker's table
// answers O(1) draws over a frozen vector and must be rebuilt in O(n)
// after any change, Weights trades the draw for O(log n) and gains
// O(log n) point updates that never touch the rest of the structure —
// Set and Append return a NEW version sharing every untouched node
// with the old one, so concurrent readers keep sampling their version
// wait-free while a single writer advances the tip.
//
// internal/dynamic uses this for the per-point µ(r) weights of a
// mutated store: repairing the weight of the handful of points an
// update batch actually affects costs O(ops · log n) instead of an
// O(n) re-count-and-rebuild. A freshly
// built (or freshly compacted) store still serves through the Walker
// table — its O(1) draws and RNG stream are part of the byte-identity
// contract with the bulk engine — and is "unfrozen" into a Weights
// tree by its first in-place update.

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// wnode is one sum-tree node. Leaves (span 1) keep the weight in sum
// and no children; a nil child stands for an all-zero subtree, which
// is what makes sparsely-appended capacity free.
type wnode struct {
	sum         float64
	left, right *wnode
}

// Weights is one immutable version of the weight vector. The zero
// value is an empty vector; NewWeights builds one from a slice. All
// methods are read-only on the receiver: Set and Append return the
// successor version.
type Weights struct {
	root *wnode
	n    int // logical length of the vector
	span int // leaf span of root: smallest power of two >= n (0 when empty)
}

// NewWeights builds version zero over the given vector in O(n).
// Negative and NaN weights are rejected like Table's.
func NewWeights(weights []float64) (*Weights, error) {
	for i, w := range weights {
		if w < 0 || w != w {
			return nil, fmt.Errorf("alias: weight %d is invalid (%g)", i, w)
		}
	}
	w := &Weights{n: len(weights)}
	if w.n == 0 {
		return w, nil
	}
	w.span = 1
	for w.span < w.n {
		w.span *= 2
	}
	w.root = buildWNode(weights, w.span)
	return w, nil
}

// buildWNode builds the subtree covering weights padded to span.
func buildWNode(weights []float64, span int) *wnode {
	if len(weights) == 0 {
		return nil
	}
	if span == 1 {
		return &wnode{sum: weights[0]}
	}
	half := span / 2
	var l, r *wnode
	if len(weights) <= half {
		l = buildWNode(weights, half)
	} else {
		l = buildWNode(weights[:half], half)
		r = buildWNode(weights[half:], half)
	}
	u := &wnode{left: l, right: r}
	if l != nil {
		u.sum += l.sum
	}
	if r != nil {
		u.sum += r.sum
	}
	return u
}

// Len returns the logical length of the vector.
func (w *Weights) Len() int { return w.n }

// Total returns the sum of all weights.
func (w *Weights) Total() float64 {
	if w.root == nil {
		return 0
	}
	return w.root.sum
}

// Get returns weight i (0 when i is out of range — appended capacity
// is implicitly zero).
func (w *Weights) Get(i int) float64 {
	if i < 0 || i >= w.n {
		return 0
	}
	u, span := w.root, w.span
	for span > 1 {
		if u == nil {
			return 0
		}
		span /= 2
		if i < span {
			u = u.left
		} else {
			i -= span
			u = u.right
		}
	}
	if u == nil {
		return 0
	}
	return u.sum
}

// Set returns a new version with weight i replaced by v, path-copying
// O(log n) nodes. i must be in [0, Len()); v must be finite and
// non-negative.
func (w *Weights) Set(i int, v float64) (*Weights, error) {
	if i < 0 || i >= w.n {
		return nil, fmt.Errorf("alias: Set index %d out of range [0,%d)", i, w.n)
	}
	if v < 0 || v != v || math.IsInf(v, 0) {
		return nil, fmt.Errorf("alias: Set weight is invalid (%g)", v)
	}
	nw := &Weights{n: w.n, span: w.span}
	nw.root = setWNode(w.root, w.span, i, v)
	return nw, nil
}

// setWNode path-copies the nodes from u down to leaf i.
func setWNode(u *wnode, span, i int, v float64) *wnode {
	if span == 1 {
		return &wnode{sum: v}
	}
	nu := &wnode{}
	if u != nil {
		*nu = *u
	}
	half := span / 2
	if i < half {
		nu.left = setWNode(nu.left, half, i, v)
	} else {
		nu.right = setWNode(nu.right, half, i-half, v)
	}
	nu.sum = 0
	if nu.left != nil {
		nu.sum += nu.left.sum
	}
	if nu.right != nil {
		nu.sum += nu.right.sum
	}
	return nu
}

// Append returns a new version with v appended at index Len(). When
// the tree is at capacity a new root level is added (the old root
// becomes the left child), so appends stay O(log n) and never copy
// the existing leaves.
func (w *Weights) Append(v float64) (*Weights, error) {
	if v < 0 || v != v || math.IsInf(v, 0) {
		return nil, fmt.Errorf("alias: Append weight is invalid (%g)", v)
	}
	nw := &Weights{root: w.root, n: w.n, span: w.span}
	if nw.span == 0 {
		nw.span = 1
	}
	for nw.n >= nw.span {
		nw.root = &wnode{sum: nw.root.sumOrZero(), left: nw.root}
		nw.span *= 2
	}
	nw.n++
	nw.root = setWNode(nw.root, nw.span, nw.n-1, v)
	return nw, nil
}

func (u *wnode) sumOrZero() float64 {
	if u == nil {
		return 0
	}
	return u.sum
}

// Sample draws an index with probability proportional to its weight in
// O(log n): one uniform variate, then a descent by partial sums. It
// panics when Total() is zero (mirroring Small.Sample on an empty
// table) — callers gate on Total() like they gate on ErrNoWeight.
func (w *Weights) Sample(r *rng.RNG) int {
	if w.root == nil || !(w.root.sum > 0) {
		panic("alias: Sample on zero-total Weights")
	}
	u := r.Float64() * w.root.sum
	node, span, idx := w.root, w.span, 0
	for span > 1 {
		span /= 2
		l, rt := node.left, node.right
		switch {
		case rt == nil:
			node = l
		case l == nil:
			idx += span
			node = rt
		case u < l.sum && l.sum > 0:
			node = l
		case rt.sum > 0:
			// Rounding can push u to (or a hair past) the left sum even
			// when the draw "belongs" left; the measure of that boundary
			// is zero, so routing it right keeps the distribution exact.
			u -= l.sum
			idx += span
			node = rt
		default:
			node = l
		}
	}
	if idx >= w.n {
		// Unreachable for well-formed trees (all mass lies below n);
		// defend against pathological rounding anyway.
		idx = w.n - 1
	}
	return idx
}

// SizeBytes estimates the footprint of one fully-materialized version
// (~2 nodes per slot at 32 bytes each). Shared structure across
// versions makes the true incremental cost of a new version O(log n);
// this reports the standalone size, which is what a store owning the
// tip should charge itself.
func (w *Weights) SizeBytes() int { return 64 * w.n }
