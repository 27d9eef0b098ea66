package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro"
)

// opTimes are one operation's wall-clock and process CPU times.
type opTimes struct{ wall, cpu time.Duration }

// timeOp runs op and returns its wall-clock and process CPU times.
// Only one operation is in flight at a time, so the process CPU time
// spent while op runs is op's cost: the client, the router, the shard
// handlers, and the garbage collector work it causes.
func timeOp(op func() error) (opTimes, error) {
	w0, c0 := time.Now(), cpuNow()
	err := op()
	return opTimes{time.Since(w0), cpuNow() - c0}, err
}

// idSeen records that a draw started at start returned an inserted
// point.
type idSeen struct {
	start time.Time
	id    int32
	sideR bool
}

// probeGCEvery is how many batches of a write probe run between
// forced collections, which run between batches, untimed. The live heap
// of a fleet after its first write is large, a collection of it costs
// as much CPU as 60 to 90 batches, and a few hundred batches trigger
// only one or two on their own; so the mean cost per batch moved by a
// third with the number of collections that happened to fall inside
// the probe. Forced often enough that none triggers on its own, no
// collection falls inside a batch, and the probe times the update path
// itself. The collection work that updates cause shows in
// runtime.alloc_bytes_per_op.
const probeGCEvery = 50

// refInterval is how often the timed phase runs a reference block.
const refInterval = 100 * time.Millisecond

// keepDraw selects the draws whose pairs are checked against the
// window predicate: the first four and every 64th.
func keepDraw(i int) bool { return i < 4 || i%64 == 0 }

// timed runs the timed phase: one closed loop of seeded draws for
// seconds. On a writing workload the loop also sends the update
// batches of a schedule of w.writeRate batches per second: after each
// draw, the next batch if it is due. Batches the loop fell behind on
// are sent after the timed phase, so every run of a seed applies the
// same batches. Then come the output checks and the counters of the
// phase.
func timed(ctx context.Context, o options, w workload, in inputs, sys *system, tr *tracer, seconds float64, p *phase) error {
	if tr != nil {
		tr.reset()
	}
	f := sys.fleet
	var (
		st0  []srj.ServerStats
		rs0  srj.RouterStats
		wal0 int64
		es0  srj.EngineStats
		err  error
	)
	if f != nil {
		if st0, err = f.stats(ctx); err != nil {
			return err
		}
		rs0 = f.router.Stats()
		if wal0, err = f.walBytes(); err != nil {
			return err
		}
	} else {
		es0 = sys.eng.Stats()
	}
	deleted := make(map[int32]time.Time) // inserted ID -> when its delete was acknowledged, per side
	deletedS := make(map[int32]time.Time)
	var (
		kept     [][]srj.Pair // copies of a deterministic subset of draws, for the window check
		seen     []idSeen     // inserted points a draw returned, for the delete check
		errs     []string
		sent     int // update batches sent
		applied  int // operations in the batches acknowledged
		buf      = make([]srj.Pair, w.t)
		watch    = w.writeRate > 0
		batches  = int(math.Ceil(seconds * w.writeRate))
		interval = time.Duration(float64(time.Second) / max(w.writeRate, 1e-9))
		rt0      = readRuntime()
		start    = time.Now()
		cpuStart = cpuNow()
		deadline = start.Add(time.Duration(seconds * float64(time.Second)))
		lastRef  = start
	)
	// refBlock runs a reference block every refInterval, between
	// operations, and keeps its time out of the phase's.
	refBlock := func() {
		if time.Since(lastRef) < refInterval {
			return
		}
		w0, c0 := time.Now(), cpuNow()
		p.ref.block()
		p.refCPU += cpuNow() - c0
		lastRef = time.Now()
		p.refWall += lastRef.Sub(w0)
	}
	// send applies the next batch of the schedule; batch 0 was the
	// first write.
	send := func() {
		sent++
		k := sent
		u := in.seq.batch(k)
		ot, err := timeOp(func() error { return applyTraced(ctx, sys, tr, fmt.Sprintf("u%d", k), u) })
		p.countOp(err)
		if err != nil {
			errs = append(errs, err.Error())
			return
		}
		p.applies = append(p.applies, ot.wall)
		p.applyCPU = append(p.applyCPU, ot.cpu)
		applied += u.Ops()
		ack := time.Now()
		for _, id := range u.DeleteR {
			deleted[id] = ack
		}
		for _, id := range u.DeleteS {
			deletedS[id] = ack
		}
	}
	for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
		dctx, id := ctx, ""
		if tr != nil {
			id = fmt.Sprintf("d%d", i)
			dctx = srj.WithRequestID(ctx, id)
		}
		var res srj.Result
		drawStart := time.Now()
		ot, err := timeOp(func() (err error) {
			res, err = sys.src.Draw(dctx, srj.Request{T: w.t, Seed: drawSeed(o.seed, 0, i), Into: buf})
			return err
		})
		if tr != nil {
			tr.record(spanDraw, id, drawStart, drawStart.Add(ot.wall))
		}
		if err == nil && len(res.Pairs) != w.t {
			err = fmt.Errorf("draw returned %d pairs, want %d", len(res.Pairs), w.t)
		}
		p.countOp(err)
		if err != nil {
			errs = append(errs, err.Error())
		} else {
			p.draws = append(p.draws, ot.wall)
			p.drawCPU = append(p.drawCPU, ot.cpu)
			p.samples += len(res.Pairs)
			if keepDraw(i) {
				kept = append(kept, slices.Clone(res.Pairs))
			}
			if watch {
				for _, pr := range res.Pairs {
					if pr.R.ID >= idBase {
						seen = append(seen, idSeen{start: drawStart, id: pr.R.ID, sideR: true})
					}
					if pr.S.ID >= idBase {
						seen = append(seen, idSeen{start: drawStart, id: pr.S.ID})
					}
				}
			}
		}
		if sent < batches && time.Since(start) >= time.Duration(sent)*interval {
			send()
		}
		refBlock()
	}
	p.cpu = cpuNow() - cpuStart - p.refCPU
	p.elapsed = time.Since(start) - p.refWall
	for ctx.Err() == nil && sent < batches {
		send()
	}
	rt1 := readRuntime()
	if err := ctx.Err(); err != nil {
		return err
	}
	p.errs = append(p.errs, firstN(errs, 3)...)

	// Output checks, outside the timed interval.
	p.check(len(p.draws) > 0, "no draw completed in the timed phase")
	checkWindow(p, kept)
	for _, s := range seen {
		del := deleted
		if !s.sideR {
			del = deletedS
		}
		if ack, ok := del[s.id]; ok && ack.Before(s.start) {
			p.check(false, "a draw started %v after the delete of %d was acknowledged returned it",
				s.start.Sub(ack), s.id)
			break
		}
	}
	kept, seen = nil, nil
	p.ref.release()
	p.heapMiB = liveHeapMiB()

	ops := float64(len(p.draws) + len(p.applies))
	p.layers.gcCycles = float64(rt1.gcCycles - rt0.gcCycles)
	p.layers.allocPerOp = float64(rt1.allocBytes-rt0.allocBytes) / max(ops, 1)
	if f == nil {
		es1 := sys.eng.Stats()
		p.layers.engineTrialsPerSample = ratio(es1.Trials-es0.Trials, es1.Samples-es0.Samples)
		p.layers.engineDrawMS = ms(es1.TotalLatency-es0.TotalLatency) / math.Max(float64(es1.Requests-es0.Requests), 1)
		return nil
	}
	st1, err := f.stats(ctx)
	if err != nil {
		return err
	}
	rs1 := f.router.Stats()
	var attempts uint64
	for i, b := range rs1.Backends {
		attempts += b.Requests - rs0.Backends[i].Requests
	}
	p.layers.attemptsPerDraw = float64(attempts) / math.Max(float64(len(p.draws)), 1)
	var hits, misses uint64
	var e0, e1 srj.EngineStats
	for i := range st1 {
		hits += st1[i].Registry.Hits - st0[i].Registry.Hits
		misses += st1[i].Registry.Misses - st0[i].Registry.Misses
		addEngine(&e0, st0[i])
		addEngine(&e1, st1[i])
		p.layers.regBuilds += float64(st0[i].Registry.Builds)
		p.layers.regBuildS += st0[i].Registry.BuildLatency.Sum
	}
	p.layers.regHitRatio = ratio(hits, hits+misses)
	p.layers.engineDrawMS = ms(e1.TotalLatency-e0.TotalLatency) / math.Max(float64(e1.Requests-e0.Requests), 1)
	if watch {
		p.layers.dynTrials = ratio(e1.Trials-e0.Trials, e1.Samples-e0.Samples)
		wal1, err := f.walBytes()
		if err != nil {
			return err
		}
		p.layers.walBytesPerOp = float64(wal1-wal0) / math.Max(float64(applied*shards), 1)
		p.counts.walBytes = wal1
		storeLayers(p, st1)
	} else {
		p.layers.engineTrialsPerSample = ratio(e1.Trials-e0.Trials, e1.Samples-e0.Samples)
	}
	return nil
}

// checkWindow checks that every kept pair satisfies the join
// predicate: s lies in the window of half-extent l around r.
func checkWindow(p *phase, kept [][]srj.Pair) {
	for _, pairs := range kept {
		for _, pr := range pairs {
			if math.Abs(pr.R.X-pr.S.X) > halfExtent || math.Abs(pr.R.Y-pr.S.Y) > halfExtent {
				p.check(false, "pair %v is outside the window of l=%g", pr, halfExtent)
				return
			}
		}
	}
	p.check(len(kept) > 0, "no draw was kept for the window check")
}

// checkIdentical checks that a seeded draw through the system equals,
// pair for pair, the same seeded draw from a local Engine on the same
// inputs.
func checkIdentical(ctx context.Context, p *phase, src srj.Source, ref *srj.Engine, seed uint64) {
	req := srj.Request{T: 1000, Seed: drawSeed(seed, -2, 0)}
	got, err := src.Draw(ctx, req)
	p.countOp(err)
	want, rerr := ref.Draw(ctx, req)
	if err != nil || rerr != nil {
		p.check(false, "identity draw failed: %v / %v", err, rerr)
		return
	}
	p.check(slices.Equal(got.Pairs, want.Pairs), "a seeded routed draw differs from the same draw on a local engine")
	checkWindow(p, [][]srj.Pair{got.Pairs})
}

// probeCounts draws a fixed set of seeded requests after the timed
// phase and records their sampling trials, with the dynamic in-place
// operation count: seeded work that must repeat exactly.
func probeCounts(ctx context.Context, o options, w workload, sys *system, p *phase) error {
	trials := func() (uint64, uint64, error) {
		if sys.fleet == nil {
			return sys.eng.Stats().Trials, 0, nil
		}
		st, err := sys.fleet.stats(ctx)
		if err != nil {
			return 0, 0, err
		}
		var e srj.EngineStats
		var inplace uint64
		for _, s := range st {
			addEngine(&e, s)
			for _, d := range s.Stores {
				inplace += d.InPlaceOps
			}
		}
		return e.Trials, inplace, nil
	}
	before, _, err := trials()
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		_, err := sys.src.Draw(ctx, srj.Request{T: w.t, Seed: drawSeed(o.seed, -3, i)})
		p.countOp(err)
	}
	after, inplace, err := trials()
	if err != nil {
		return err
	}
	p.counts.probeTrials = after - before
	p.counts.inPlaceOps = inplace
	return nil
}

// writeProbe gives a draw-only workload its write metrics after the
// timed phase: the first write to the serving dataset (an in-process
// Store over the same inputs for local-draw), then the next w.probe
// batches of the sequence back to back.
func writeProbe(ctx context.Context, o options, w workload, sys *system, tr *tracer, in inputs, p *phase) error {
	if err := firstApply(ctx, p, sys, in); err != nil {
		return err
	}
	probe := w.probe
	if o.probe > 0 {
		probe = o.probe
	}
	for k := 1; k <= probe; k++ {
		if (k-1)%probeGCEvery == 0 {
			runtime.GC()
		}
		u := in.seq.batch(k)
		ot, err := timeOp(func() error { return applyTraced(ctx, sys, tr, fmt.Sprintf("p%d", k), u) })
		p.countOp(err)
		if err == nil {
			p.applies = append(p.applies, ot.wall)
			p.applyCPU = append(p.applyCPU, ot.cpu)
		}
	}
	if sys.store != nil {
		p.counts.inPlaceOps = sys.store.InPlaceOps()
		p.layers.inPlaceOps = float64(sys.store.InPlaceOps())
		p.layers.rebuilds = float64(sys.store.Rebuilds())
		p.layers.dynSizeMiB = float64(sys.store.SizeBytes()) / (1 << 20)
		return nil
	}
	st, err := sys.fleet.stats(ctx)
	if err != nil {
		return err
	}
	storeLayers(p, st)
	p.counts.inPlaceOps = uint64(p.layers.inPlaceOps)
	return nil
}

// applyTraced sends one update batch; traced, the batch carries
// request ID id and is recorded as a bench.apply span.
func applyTraced(ctx context.Context, sys *system, tr *tracer, id string, u srj.Update) error {
	if tr == nil {
		return sys.apply(ctx, u)
	}
	start := time.Now()
	err := sys.apply(srj.WithRequestID(ctx, id), u)
	tr.record(spanApply, id, start, time.Now())
	return err
}

// storeLayers reads the dynamic stores' counters from shard stats.
func storeLayers(p *phase, st []srj.ServerStats) {
	p.layers.inPlaceOps, p.layers.rebuilds, p.layers.dynSizeMiB = 0, 0, 0
	for _, s := range st {
		for _, d := range s.Stores {
			p.layers.inPlaceOps += float64(d.InPlaceOps)
			p.layers.rebuilds += float64(d.Rebuilds)
			p.layers.dynSizeMiB = max(p.layers.dynSizeMiB, float64(d.SizeBytes)/(1<<20))
		}
	}
}

// addEngine adds a shard's serving-engine counters to e: its dynamic
// stores when it has any, else its static registry engines.
func addEngine(e *srj.EngineStats, st srj.ServerStats) {
	add := func(s srj.EngineStats) {
		e.Requests += s.Requests
		e.Samples += s.Samples
		e.Trials += s.Trials
		e.TotalLatency += s.TotalLatency
	}
	if len(st.Stores) > 0 {
		for _, d := range st.Stores {
			add(d.Engine)
		}
		return
	}
	for _, en := range st.Engines {
		if en.Key.Generation == 0 {
			add(en.Engine)
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func firstN(s []string, n int) []string { return s[:min(n, len(s))] }

func (p *phase) check(ok bool, format string, args ...any) {
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}
