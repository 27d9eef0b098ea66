package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of the
// raw durations in milliseconds: an observed value, never an
// interpolation between histogram bucket edges.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return ms(s[i])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of a non-empty list of seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2].Seconds()
	}
	return (s[n/2-1] + s[n/2]).Seconds() / 2
}

// mean of the durations, in milliseconds.
func mean(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return ms(sum(ds)) / float64(len(ds))
}

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawSeed is the seed of draw i of stream c: fixed by the workload
// seed, so every run asks for the same samples in the same order. The
// timed loop is stream 0; the checks and probes outside it use
// negative streams. It is never 0, which would mean "unseeded".
func drawSeed(seed uint64, c, i int) uint64 {
	return mix(mix(seed)^uint64(c)<<40^uint64(i)) | 1
}

// Update sequence. Batch k inserts batchPoints R and S points and
// deletes the points batch k-2 inserted, so the dataset size stays
// constant. Inserted IDs start at idBase and are never reused, so a
// deleted ID stays deleted.
const (
	batchPoints = 4
	idBase      = 1 << 30
	domain      = 10_000.0 // the built-in generators' [0, domain]^2
)

type updateSeq struct {
	R, S   []srj.Point
	seed   uint64
	jitter float64
	// follow places inserts as small jitters of existing data points,
	// so they land in dense cells as real data does. Otherwise they
	// are uniform over the domain: an insert's cost grows with the
	// density around it, and uniform inserts make that cost depend far
	// less on where a seed put the hotspots (in-process apply p50
	// 2.4–3.2 ms over seeds 1–8, against 3.2–5.4 ms following the
	// data).
	follow bool
}

func newUpdateSeq(R, S []srj.Point, seed uint64, l float64, follow bool) *updateSeq {
	return &updateSeq{R: R, S: S, seed: seed, jitter: l / 10, follow: follow}
}

func batchID(k, j int) int32 { return int32(idBase + batchPoints*k + j) }

// batch returns update k of the sequence; equal (seed, k) give equal
// batches.
func (u *updateSeq) batch(k int) srj.Update {
	rng := rand.New(rand.NewPCG(u.seed, uint64(k)))
	place := func(pts []srj.Point) []srj.Point {
		out := make([]srj.Point, batchPoints)
		for j := range out {
			p := srj.Point{X: domain * rng.Float64(), Y: domain * rng.Float64()}
			if u.follow {
				p = pts[rng.IntN(len(pts))]
			}
			out[j] = srj.Point{
				X:  p.X + (2*rng.Float64()-1)*u.jitter,
				Y:  p.Y + (2*rng.Float64()-1)*u.jitter,
				ID: batchID(k, j),
			}
		}
		return out
	}
	up := srj.Update{InsertR: place(u.R), InsertS: place(u.S)}
	if k >= 2 {
		for j := 0; j < batchPoints; j++ {
			up.DeleteR = append(up.DeleteR, batchID(k-2, j))
			up.DeleteS = append(up.DeleteS, batchID(k-2, j))
		}
	}
	return up
}

// runtimeCounters samples the runtime counters whose deltas over the
// timed phase are reported.
type runtimeCounters struct {
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// liveHeapMiB returns the live heap after forced collections. The
// second collection frees what sync.Pool caches kept through the
// first, so pooled sampler clones do not count as live data.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
