package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro"
)

// The reference sampler is a plain grid join sampler written in this
// file, over the workload's own inputs. No change to the program can
// change what it costs, so the benchmark times it beside the program,
// in the same process, and reports the program's costs as multiples of
// its cost. On a shared host, the speed of memory-bound code moves by
// up to 3x over minutes with the load of other guests; both sides of
// such a ratio move together, and the ratio moves with the program.
//
// It keys S by cells of side l in a Go map, as the program's grid
// does. A trial picks r uniformly from R, looks up the 3x3 cells around
// r's cell, picks one S point among them, and accepts the pair when s
// lies in r's window. A block draws refBlockSamples pairs from a fixed
// seed, so every block does the same work.
type refSampler struct {
	R     []srj.Point
	cells map[uint64][]srj.Point
	l     float64
	near  [9][]srj.Point
	out   []srj.Pair

	blocks []time.Duration // process CPU time of each block
}

const refBlockSamples = 5_000

func newRefSampler(R, S []srj.Point, l float64) *refSampler {
	g := &refSampler{R: R, cells: make(map[uint64][]srj.Point), l: l, out: make([]srj.Pair, 0, refBlockSamples)}
	for _, s := range S {
		k := g.key(g.cell(s.X), g.cell(s.Y))
		g.cells[k] = append(g.cells[k], s)
	}
	return g
}

func (g *refSampler) cell(v float64) int32 { return int32(math.Floor(v / g.l)) }

func (g *refSampler) key(cx, cy int32) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

// block draws one block of pairs and records its process CPU time.
func (g *refSampler) block() {
	start := cpuNow()
	rng := rand.New(rand.NewPCG(1, 2))
	g.out = g.out[:0]
	for len(g.out) < refBlockSamples {
		r := g.R[rng.IntN(len(g.R))]
		cx, cy := g.cell(r.X), g.cell(r.Y)
		total := 0
		for i := range g.near {
			g.near[i] = g.cells[g.key(cx+int32(i%3)-1, cy+int32(i/3)-1)]
			total += len(g.near[i])
		}
		if total == 0 {
			continue
		}
		u := rng.IntN(total)
		for _, c := range g.near {
			if u < len(c) {
				if s := c[u]; math.Abs(r.X-s.X) <= g.l && math.Abs(r.Y-s.Y) <= g.l {
					g.out = append(g.out, srj.Pair{R: r, S: s})
				}
				break
			}
			u -= len(c)
		}
	}
	g.blocks = append(g.blocks, cpuNow()-start)
}

// release drops the sampler's data, so that the live heap measured
// afterwards is the program's; unit stays readable.
func (g *refSampler) release() { g.R, g.cells, g.out = nil, nil, nil }

// unit is the median CPU time of the blocks run so far: the yardstick
// every *_ref metric is a multiple of.
func (g *refSampler) unit() time.Duration {
	s := slices.Clone(g.blocks)
	slices.Sort(s)
	return s[len(s)/2]
}
