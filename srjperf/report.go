package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro"
)

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. setup_s is process CPU time; the *_ref metrics are
// process CPU times as multiples of the reference sampler's, which
// runs beside them in the same process (see reference.go). Costs per
// draw and per update are means, not medians: an operation that
// overlaps a garbage collection pays for the whole of it, so per-op
// CPU times are bimodal, and a median jumps between the modes.
func endToEnd(p *phase) []metric {
	unit := ms(p.ref.unit())
	return []metric{
		{"setup_s", "s", medianSeconds(p.setupCPU)},
		{"heap_mib", "MiB", p.heapMiB},
		{"throughput_ref", "ratio", float64(p.samples) / ms(sum(p.drawCPU)) / (refBlockSamples / unit)},
		{"draw_p50_ref", "ratio", percentile(p.drawCPU, 0.50) / unit},
		{"first_apply_ref", "ratio", 1e3 * medianSeconds(p.firstApplyCPU) / unit},
		{"apply_ref", "ratio", mean(p.applyCPU) / unit},
	}
}

// cpuTimes lists the process CPU times the *_ref metrics divide.
func cpuTimes(p *phase) []metric {
	return []metric{
		{"ref_block_ms", "ms", ms(p.ref.unit())},
		{"samples_per_cpu_s", "1/s", float64(p.samples) / sum(p.drawCPU).Seconds()},
		{"draw_p50_ms", "ms", percentile(p.drawCPU, 0.50)},
		{"draw_mean_ms", "ms", mean(p.drawCPU)},
		{"first_apply_s", "s", medianSeconds(p.firstApplyCPU)},
		{"apply_mean_ms", "ms", mean(p.applyCPU)},
	}
}

// wallClock lists the same figures in wall-clock time. On a shared
// host they move with the load of other guests, so they are printed,
// not gated.
func wallClock(p *phase) []metric {
	return []metric{
		{"setup_s", "s", medianSeconds(p.setup)},
		{"samples_per_s", "1/s", float64(p.samples) / p.elapsed.Seconds()},
		{"draw_p50_ms", "ms", percentile(p.draws, 0.50)},
		{"first_apply_s", "s", medianSeconds(p.firstApply)},
		{"apply_p50_ms", "ms", percentile(p.applies, 0.50)},
		{"cpu_busy", "ratio", p.cpu.Seconds() / p.elapsed.Seconds()},
	}
}

// tails are the wall-clock latency tails. Their run-to-run spread on a
// shared 2-vCPU host exceeds any useful regression bound, so they are
// printed and reported per layer, not gated.
func tails(p *phase) []metric {
	return []metric{
		{"bench.draw_p99_ms", "ms", percentile(p.draws, 0.99)},
		{"bench.apply_p95_ms", "ms", percentile(p.applies, 0.95)},
	}
}

// corePhase are the paper's Table III phases of one sampler build,
// each the median of three builds.
type corePhase struct{ preprocess, gridmap, count float64 }

// corePhases times Preprocess, Build (grid mapping), and Count of
// srj.NewSampler on the workload inputs.
func corePhases(in inputs, seed uint64) (corePhase, error) {
	var pre, gm, cnt []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		s, err := srj.NewSampler(in.R, in.S, halfExtent, &srj.Options{Seed: seed})
		if err != nil {
			return corePhase{}, err
		}
		for _, ph := range []struct {
			run func() error
			out *[]time.Duration
		}{{s.Preprocess, &pre}, {s.Build, &gm}, {s.Count, &cnt}} {
			start := time.Now()
			if err := ph.run(); err != nil {
				return corePhase{}, err
			}
			*ph.out = append(*ph.out, time.Since(start))
		}
	}
	return corePhase{1e3 * medianSeconds(pre), 1e3 * medianSeconds(gm), 1e3 * medianSeconds(cnt)}, nil
}

// perLayer lists the per-layer metrics of a traced pass. A layer the
// workload does not load reads 0.
func perLayer(w workload, core corePhase, p *phase) []metric {
	l, s := p.layers, p.layers.spans
	coreTrials := l.engineTrialsPerSample
	if w.writeRate > 0 {
		// The timed phase draws from the dynamic store; the static
		// engine's ratio comes from the local reference engine.
		coreTrials = l.refTrialsPerSample
	}
	var serverSelf, clientSelf float64
	if w.routed {
		serverSelf = s.serverSample - l.engineDrawMS
		clientSelf = s.draw - s.clientRT
	}
	return append([]metric{
		{"core.preprocess_ms", "ms", core.preprocess},
		{"core.gridmap_ms", "ms", core.gridmap},
		{"core.count_ms", "ms", core.count},
		{"core.trials_per_sample", "ratio", coreTrials},
		{"engine.draw_ms", "ms", l.engineDrawMS},
		{"engine.warm_ms", "ms", l.warmMS},
		{"registry.hit_ratio", "ratio", l.regHitRatio},
		{"registry.builds", "count", l.regBuilds},
		{"registry.build_s", "s", l.regBuildS},
		{"server.sample_ms", "ms", s.serverSample},
		{"server.sample_self_ms", "ms", serverSelf},
		{"server.update_ms", "ms", s.serverUpdate},
		{"dynamic.inplace_ops", "count", l.inPlaceOps},
		{"dynamic.rebuilds", "count", l.rebuilds},
		{"dynamic.trials_per_sample", "ratio", l.dynTrials},
		{"dynamic.size_mib", "MiB", l.dynSizeMiB},
		{"wal.bytes_per_op", "B/op", l.walBytesPerOp},
		{"router.sample_ms", "ms", s.routerSample},
		{"router.upstream_ms", "ms", s.upstreamSample},
		{"router.self_ms", "ms", s.routerSelf},
		{"router.attempts_per_draw", "ratio", l.attemptsPerDraw},
		{"router.broadcast_ms", "ms", s.routerUpdate},
		{"router.broadcast_skew_ms", "ms", s.broadcastSkew},
		{"srj.roundtrip_ms", "ms", s.clientRT},
		{"srj.client_self_ms", "ms", clientSelf},
		{"runtime.gc_cycles", "count", l.gcCycles},
		{"runtime.alloc_bytes_per_op", "B/op", l.allocPerOp},
		{"bench.ref_block_ms", "ms", ms(p.ref.unit())},
	}, tails(p)...)
}

// printCounts prints the first errors of failed operations and the
// seeded work counts, which repeat exactly across runs of one seed.
func printCounts(out io.Writer, p *phase) {
	for _, e := range p.errs {
		fmt.Fprintf(out, "operation failed: %s\n", e)
	}
	fmt.Fprintf(out, "stages: %s\n", strings.Join(p.stages, " "))
	for _, m := range cpuTimes(p) {
		fmt.Fprintf(out, "cpu  %-22s %12.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range wallClock(p) {
		fmt.Fprintf(out, "wall %-22s %12.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range tails(p) {
		fmt.Fprintf(out, "tail %-22s %12.4f %s (%d draws, %d updates)\n", m.name, m.value, m.unit, len(p.draws), len(p.applies))
	}
	c := p.counts
	fmt.Fprintf(out, "counts: probe_trials=%d inplace_ops=%d wal_bytes=%d\n", c.probeTrials, c.inPlaceOps, c.walBytes)
}

// printOverhead prints the traced pass's end-to-end metrics minus the
// untraced pass's.
func printOverhead(out io.Writer, base, traced []metric) {
	fmt.Fprintln(out, "tracing overhead (traced minus untraced pass):")
	for i, b := range base {
		t := traced[i]
		pct := 0.0
		if b.value != 0 {
			pct = 100 * (t.value - b.value) / b.value
		}
		fmt.Fprintf(out, "  %-16s %12.4g -> %12.4g %s (%+.1f%%)\n", b.name, b.value, t.value, b.unit, pct)
	}
}

// printSplit prints where a routed draw spends its time, layer by
// layer from the client inwards: each figure is a mean per draw, and
// they sum to the client-observed mean.
func printSplit(out io.Writer, l layerStats) {
	s := l.spans
	rows := []struct {
		name string
		v    float64
	}{
		{"srj client (encode, decode)", s.draw - s.clientRT},
		{"client->router wire", s.clientRT - s.routerSample},
		{"router self", s.routerSelf},
		{"router->shard wire", s.routerSample - s.routerSelf - s.serverSample},
		{"server self (handler, registry, frames)", s.serverSample - l.engineDrawMS},
		{"engine draw", l.engineDrawMS},
	}
	fmt.Fprintf(out, "routed draw path, mean ms per draw over %d draws (total %.4f):\n", s.draws, s.draw)
	for _, r := range rows {
		pct := 0.0
		if s.draw > 0 {
			pct = 100 * r.v / s.draw
		}
		fmt.Fprintf(out, "  %-42s %9.4f  %5.1f%%\n", r.name, r.v, pct)
	}
}
