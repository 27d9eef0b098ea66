package server

import (
	"time"

	"repro/internal/obs"
)

// serverMetrics holds the server's push-side metric state. It lives
// on the Server — not the registry entries — because exported
// counters and histograms must be monotonic, and registry entries get
// evicted. Labels are bounded by construction: algorithm names come
// from resolved keys (a fixed algorithm set) and outcome codes from
// the Code* constants.
type serverMetrics struct {
	drawHist    *obs.HistogramVec // srj_draw_duration_seconds{algorithm}
	drawSamples *obs.CounterVec   // srj_draw_samples_total{algorithm}
	requests    *obs.CounterVec   // srj_requests_total{code}
}

func newServerMetrics() serverMetrics {
	return serverMetrics{
		drawHist:    obs.NewHistogramVec(obs.DrawDurationBuckets),
		drawSamples: obs.NewCounterVec(),
		requests:    obs.NewCounterVec(),
	}
}

// collectMetrics assembles one scrape. Push-side families come from
// serverMetrics; everything derived from registry/store snapshots is
// exported as gauges only (snapshots of an evictable set cannot back
// a counter). Per-dataset detail stays off this surface — /metrics
// carries no dataset labels by design; /v1/stats has the keyed JSON.
func (s *Server) collectMetrics(m *obs.MetricSet) {
	m.Gauge(obs.MetricUptime, "Process uptime.", time.Since(s.start).Seconds())

	s.metrics.requests.Each(func(code string, n uint64) {
		m.Counter(obs.MetricRequests, "API requests by outcome code.",
			float64(n), obs.L(obs.LabelCode, code))
	})
	s.metrics.drawSamples.Each(func(alg string, n uint64) {
		m.Counter(obs.MetricDrawSamples, "Join samples delivered to clients.",
			float64(n), obs.L(obs.LabelAlgorithm, alg))
	})
	s.metrics.drawHist.Each(func(alg string, snap obs.HistogramSnapshot) {
		m.Histogram(obs.MetricDrawDuration, "Full draw-request latency.",
			snap, obs.L(obs.LabelAlgorithm, alg))
	})

	rs := s.cfg.Registry.Stats()
	m.Counter(obs.MetricRegistryHits, "Registry gets served by a resident engine.", float64(rs.Hits))
	m.Counter(obs.MetricRegistryMisses, "Registry gets that found no resident engine.", float64(rs.Misses))
	m.Counter(obs.MetricRegistryBuilds, "Engine builds executed.", float64(rs.Builds))
	m.Counter(obs.MetricRegistryEvictions, "Engines evicted, by reason.",
		float64(rs.Evictions), obs.L(obs.LabelReason, "budget"))
	m.Counter(obs.MetricRegistryEvictions, "Engines evicted, by reason.",
		float64(rs.ManualEvictions), obs.L(obs.LabelReason, "manual"))
	m.Gauge(obs.MetricRegistryEntries, "Resident engines.", float64(rs.Entries))
	m.Gauge(obs.MetricRegistryBytes, "Summed size of resident engines.", float64(rs.Bytes))
	m.Gauge(obs.MetricRegistryBudget, "Configured memory budget (0 = unlimited).", float64(rs.Budget))
	m.Histogram(obs.MetricRegistryBuildDuration, "Engine build duration.", rs.BuildLatency)

	// Acceptance rate per algorithm, aggregated over the resident
	// engines. A gauge: it is a ratio of a snapshot, and eviction
	// shrinking the window is fine for a gauge.
	type accum struct{ samples, trials uint64 }
	byAlg := map[string]*accum{}
	for _, e := range s.cfg.Registry.Entries() {
		a := byAlg[e.Key.Algorithm]
		if a == nil {
			a = &accum{}
			byAlg[e.Key.Algorithm] = a
		}
		a.samples += e.Engine.Samples
		a.trials += e.Engine.Trials
	}
	for alg, a := range byAlg {
		if a.trials == 0 {
			continue
		}
		m.Gauge(obs.MetricAcceptanceRate,
			"Accepted samples over rejection trials across resident engines.",
			float64(a.samples)/float64(a.trials), obs.L(obs.LabelAlgorithm, alg))
	}

	if s.cfg.Stores == nil {
		return
	}
	infos := s.cfg.Stores.Infos()
	m.Gauge(obs.MetricStores, "Live dynamic stores.", float64(len(infos)))
	if len(infos) == 0 {
		return
	}
	var maxGen, maxApplied uint64
	var rebuilds, inplaceOps uint64
	var walAppends, walSyncs, walSnapshots, persistErrs uint64
	var walSegments int
	var walBytes int64
	persisted := false
	for _, in := range infos {
		if in.Generation > maxGen {
			maxGen = in.Generation
		}
		if in.LastAppliedID > maxApplied {
			maxApplied = in.LastAppliedID
		}
		rebuilds += in.Rebuilds
		inplaceOps += in.InPlaceOps
		persisted = persisted || in.WALSegments > 0 || in.WALAppends > 0 || in.WALSnapshots > 0 || in.PersistErrors > 0
		persistErrs += in.PersistErrors
		walAppends += in.WALAppends
		walSyncs += in.WALSyncs
		walSnapshots += in.WALSnapshots
		walSegments += in.WALSegments
		walBytes += in.WALBytes
	}
	m.Gauge(obs.MetricStoreGeneration, "Highest store generation.", float64(maxGen))
	// Stores are never dropped from the map, so this sum of per-store
	// counters is monotonic and may be exported as a counter.
	m.Counter(obs.MetricStoreRebuilds, "Store base rebuilds swapped in.", float64(rebuilds))
	m.Counter(obs.MetricStoreInPlaceOps, "Operations absorbed by in-place index maintenance.", float64(inplaceOps))
	m.Gauge(obs.MetricStoreLastApplied, "Highest last-applied update ID across stores.", float64(maxApplied))
	if persisted {
		// Durability families appear only on servers running with a
		// data dir, so a dashboard's absence-of-series alert means "no
		// durability configured", not "zero activity".
		m.Counter(obs.MetricWALAppends, "Update records written ahead to the log.", float64(walAppends))
		m.Counter(obs.MetricWALSyncs, "Log fsyncs issued.", float64(walSyncs))
		m.Counter(obs.MetricWALSnapshots, "Point-set snapshots persisted.", float64(walSnapshots))
		m.Counter(obs.MetricStorePersistErrors, "Point-set snapshot attempts that failed.", float64(persistErrs))
		m.Gauge(obs.MetricWALSegments, "Live log segments across stores.", float64(walSegments))
		m.Gauge(obs.MetricWALBytes, "Live log bytes across stores.", float64(walBytes))
	}
}
