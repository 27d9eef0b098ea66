package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
)

// workload is one traffic mix. All three share their inputs: R and S
// are n points each, drawn by the seed from fixed nyc pools (see
// sampleInput), joined with l = 100 by BBST.
type workload struct {
	name      string
	t         int     // samples per draw
	routed    bool    // through the in-process fleet, else an in-process Engine
	writeRate float64 // update batches per second the draw loop sends between draws; 0 = none
	durable   bool    // shards write ahead to a DataDir with fsync "always"
	probe     int     // update batches in the write probe of a draw-only workload
}

var workloads = []workload{
	{name: "local-draw", t: 5_000, probe: 1_000},
	{name: "routed-small", t: 100, routed: true, probe: 300},
	{name: "mixed-write", t: 1_000, routed: true, writeRate: 20, durable: true},
}

const halfExtent = 100.0

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolFactor is how many times n points each input pool holds.
const poolFactor = 4

// sampleInput returns side's input: n points drawn without replacement,
// by the workload seed, from nyc(poolFactor*n, side+1), numbered 0 to
// n-1. The pools are the same for every seed, so their hotspots are
// too: each seed gets different points with the same density layout,
// and runs of different seeds do the same work in expectation. Drawn
// from nyc(n, seed) instead, the hotspots move with the seed, and the
// update cost moved by up to a quarter between seeds.
func sampleInput(side, n int, seed uint64) []srj.Point {
	pool := srj.MustGenerate(datasetName, poolFactor*n, uint64(side+1))
	rng := rand.New(rand.NewPCG(seed, uint64(side)))
	for i := 0; i < n; i++ {
		j := i + rng.IntN(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	pts := slices.Clone(pool[:n]) // not a view that keeps the pool live
	for i := range pts {
		pts[i].ID = int32(i)
	}
	return pts
}

// inputs are the generated data and the fixed op sequence of one run.
type inputs struct {
	R, S []srj.Point
	key  srj.EngineKey
	seq  *updateSeq
}

// system is what the timed phase drives: an in-process Engine, or a
// fleet reached through its bound client.
type system struct {
	src     srj.Source
	eng     *srj.Engine // local-draw
	store   *srj.Store  // local-draw's write target, built for the write probe
	fleet   *fleet      // routed workloads
	dataDir string
	warm    time.Duration // Engine.Warm, local-draw
}

func (s *system) close() error {
	if s.fleet == nil {
		return nil
	}
	err := s.fleet.close()
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
	return err
}

// apply sends one update batch through the system's write path.
func (s *system) apply(ctx context.Context, u srj.Update) error {
	var err error
	if s.store != nil {
		_, err = s.store.Apply(ctx, u)
	} else {
		_, err = s.fleet.client.Apply(ctx, u)
	}
	return err
}

// phase holds everything one measured pass of a workload observed.
type phase struct {
	// Wall-clock and process CPU times of each set-up, first write,
	// draw, and update batch, and of the whole timed phase.
	setup, setupCPU           []time.Duration
	firstApply, firstApplyCPU []time.Duration
	draws, drawCPU            []time.Duration
	applies, applyCPU         []time.Duration
	elapsed, cpu              time.Duration

	samples int
	heapMiB float64
	ref     *refSampler // the yardstick, run between the operations
	refCPU  time.Duration
	refWall time.Duration // reference blocks run inside the timed phase

	attempted, failed int
	errs              []string // the first errors of failed operations
	failures          []string // output checks that failed

	counts workCounts
	layers layerStats
	spans  []span
	stages []string // wall time of each stage of the pass
}

func (p *phase) stage(name string, since time.Time) {
	p.stages = append(p.stages, fmt.Sprintf("%s=%.1fs", name, time.Since(since).Seconds()))
}

// workCounts are seeded work counts that must repeat exactly across
// runs of one seed.
type workCounts struct {
	probeTrials uint64 // sampling trials of a fixed set of seeded draws
	inPlaceOps  uint64 // dynamic in-place operations, summed over stores
	walBytes    int64  // bytes in the shards' DataDirs after the timed phase
}

// layerStats are per-layer readings taken from counters (always) and
// spans (traced passes).
type layerStats struct {
	warmMS                                      float64
	engineDrawMS, engineTrialsPerSample         float64
	refTrialsPerSample                          float64
	regHitRatio, regBuilds, regBuildS           float64
	inPlaceOps, rebuilds, dynTrials, dynSizeMiB float64
	walBytesPerOp                               float64
	attemptsPerDraw                             float64
	gcCycles, allocPerOp                        float64
	spans                                       layerTimes
}

// countOp counts one attempted operation, and a failed one when err is
// set.
func (p *phase) countOp(err error) {
	p.attempted++
	if err != nil {
		p.failed++
	}
}

// runWorkload generates the inputs and runs the workload: one pass
// with every end-to-end metric, or, traced, an untraced and a traced
// pass of half the time each, reporting per-layer metrics.
func runWorkload(ctx context.Context, o options, w workload, out io.Writer) (*report, error) {
	in := inputs{
		R:   sampleInput(0, o.n, o.seed),
		S:   sampleInput(1, o.n, o.seed),
		key: srj.EngineKey{Dataset: datasetName, L: halfExtent, Algorithm: string(srj.BBST), Seed: o.seed},
	}
	// The write probe of draw-only workloads inserts uniformly; the
	// writer of a writing workload follows the data.
	in.seq = newUpdateSeq(in.R, in.S, o.seed, halfExtent, w.writeRate > 0)
	if !o.trace {
		p, err := measure(ctx, o, w, in, nil, o.seconds, o.setups)
		if err != nil {
			return nil, err
		}
		printCounts(out, p)
		return &report{attempted: p.attempted, failed: p.failed, failures: p.failures, metrics: endToEnd(p)}, nil
	}

	core, err := corePhases(in, o.seed)
	if err != nil {
		return nil, err
	}
	base, err := measure(ctx, o, w, in, nil, o.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	p, err := measure(ctx, o, w, in, tr, o.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(path, p.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(p.spans), path)
	printCounts(out, p)
	printOverhead(out, endToEnd(base), endToEnd(p))
	if w.routed {
		printSplit(out, p.layers)
	}
	return &report{
		attempted: base.attempted + p.attempted,
		failed:    base.failed + p.failed,
		failures:  append(base.failures, p.failures...),
		metrics:   perLayer(w, core, p),
	}, nil
}

// measure runs one pass: setups set-ups (the last one serves), the
// first write, the timed phase, the output checks, and — on draw-only
// workloads — a write probe after the timed phase.
func measure(ctx context.Context, o options, w workload, in inputs, tr *tracer, seconds float64, setups int) (*phase, error) {
	p := &phase{ref: newRefSampler(in.R, in.S, halfExtent)}
	var ref *srj.Engine // local reference engine for the routed-vs-local check
	if w.routed {
		var err error
		if ref, err = srj.NewEngine(in.R, in.S, halfExtent, &srj.Options{Seed: o.seed}); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := ref.Warm(1); err != nil {
			return nil, err
		}
		p.layers.warmMS = ms(time.Since(start))
	}

	begin := time.Now()
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for rep := 0; rep < setups; rep++ {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
			sys = nil
		}
		p.ref.block()
		runtime.GC()
		ot, err := timeOp(func() (err error) {
			sys, err = setup(ctx, o, w, in, tr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, ot.wall)
		p.setupCPU = append(p.setupCPU, ot.cpu)
		if rep == 0 && ref != nil {
			checkIdentical(ctx, p, sys.src, ref, o.seed)
			st := ref.Stats()
			p.layers.refTrialsPerSample = float64(st.Trials) / float64(max(st.Samples, 1))
		}
		if rep >= setups-2 && (w.writeRate > 0 || rep < setups-1) {
			// The first write to a freshly built dataset, timed alone
			// from a collected heap, twice a run: it is the slowest
			// step of a run. Writing workloads time it on the last two
			// set-ups. Draw-only workloads time it on the set-up before
			// the serving one, whose timed phase must still draw from
			// the static engine; that one takes its first write after
			// the timed phase.
			if err := firstApply(ctx, p, sys, in); err != nil {
				return nil, err
			}
		}
	}
	ref = nil
	p.layers.warmMS = max(p.layers.warmMS, ms(sys.warm))
	p.stage("setups", begin)

	begin = time.Now()
	if err := timed(ctx, o, w, in, sys, tr, seconds, p); err != nil {
		return nil, err
	}
	p.stage("timed", begin)
	begin = time.Now()
	if err := probeCounts(ctx, o, w, sys, p); err != nil {
		return nil, err
	}
	if w.writeRate == 0 {
		if err := writeProbe(ctx, o, w, sys, tr, in, p); err != nil {
			return nil, err
		}
	}
	p.stage("probes", begin)
	if tr != nil {
		p.spans = tr.link()
		p.layers.spans = analyze(p.spans)
		if !w.routed {
			// In-process, the client's draw span is the span around
			// Engine.Draw.
			p.layers.engineDrawMS = p.layers.spans.draw
		}
	}
	return p, nil
}

// setup builds the serving system from generated inputs and returns
// once it has served its first draw.
func setup(ctx context.Context, o options, w workload, in inputs, tr *tracer) (*system, error) {
	sys := &system{}
	if !w.routed {
		eng, err := srj.NewEngine(in.R, in.S, halfExtent, &srj.Options{Seed: o.seed})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := eng.Warm(1); err != nil {
			return nil, err
		}
		sys.warm = time.Since(start)
		sys.eng, sys.src = eng, eng
	} else {
		cfg := fleetConfig{R: in.R, S: in.S, key: in.key, trace: tr}
		if w.durable {
			dir, err := scratchDir(o.workdir, "wal")
			if err != nil {
				return nil, err
			}
			sys.dataDir, cfg.dataDir = dir, dir
		}
		f, err := startFleet(cfg)
		if err != nil {
			if sys.dataDir != "" {
				os.RemoveAll(sys.dataDir)
			}
			return nil, err
		}
		sys.fleet, sys.src = f, f.client
	}
	if o.wrap != nil {
		sys.src = o.wrap(sys.src)
	}
	if _, err := sys.src.Draw(ctx, srj.Request{T: 1, Seed: drawSeed(o.seed, -1, 0)}); err != nil {
		sys.close()
		return nil, fmt.Errorf("first draw: %w", err)
	}
	return sys, nil
}

// firstApply times batch 0 of the update sequence against a freshly
// built dataset: through the fleet, or on an in-process Store built
// over the inputs (not timed) for local-draw.
func firstApply(ctx context.Context, p *phase, sys *system, in inputs) error {
	if sys.fleet == nil {
		st, err := srj.NewStore(in.R, in.S, halfExtent, &srj.StoreOptions{Seed: in.key.Seed})
		if err != nil {
			return err
		}
		sys.store = st
	}
	u := in.seq.batch(0)
	runtime.GC()
	ot, err := timeOp(func() error { return sys.apply(ctx, u) })
	p.firstApply = append(p.firstApply, ot.wall)
	p.firstApplyCPU = append(p.firstApplyCPU, ot.cpu)
	p.countOp(err)
	return nil
}
