// Package engine turns the one-shot join samplers of internal/core
// into a concurrent query-serving subsystem. The paper's BBST draws t
// samples in Õ(n + m + t) *after* a single preprocessing pass; a
// serving system only realizes that bound if the preprocessing is
// amortized across requests. An Engine therefore builds the sampler's
// structures exactly once and serves every subsequent request from a
// pool of lightweight clones: each request checks a clone out, gives
// it a fresh independent random stream, draws through the
// zero-allocation SampleInto hot path, and returns the clone for
// reuse. Aggregate request counters (requests, samples, failures,
// cumulative and peak latency) are maintained lock-free.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// DefaultBatch is the pooled buffer size SampleFunc streams through:
// large enough to amortize per-batch overhead, small enough (~200 KiB
// of pairs) to stay cache-resident.
const DefaultBatch = 4096

// ErrSampleCap is returned (wrapped, with the offending numbers) when
// a request asks for more samples than the Engine's configured
// per-request cap. Sample checks the cap before allocating the result
// slice, so an adversarial t cannot OOM the process; servers should
// treat this as a client error (it counts toward
// Stats.ClientFailures).
var ErrSampleCap = errors.New("engine: sample count exceeds the per-request cap")

// ErrBadRequest marks requests that are malformed independent of any
// configured cap: a non-positive sample count, or an Into buffer too
// small for the count requested. Servers map it to HTTP 400; it counts
// toward Stats.ClientFailures.
var ErrBadRequest = errors.New("engine: bad request")

// Request carries the per-request parameters of one Draw or DrawFunc.
// It is the request half of the Source contract (the root package
// re-exports it as srj.Request): the same struct parameterizes local
// and remote draws, and Resolve/ResolveStream are the single
// validation both sides apply, so malformed requests are rejected
// identically everywhere.
type Request struct {
	// T is the number of samples to draw. Zero with a non-nil Into
	// means len(Into); otherwise T must be positive.
	T int
	// Seed, when nonzero, makes the draw reproducible: the request is
	// served from a stream seeded with it, so equal (built structures,
	// Seed) pairs yield identical samples, whatever traffic is
	// interleaved — locally and over the wire (where it travels as
	// draw_seed). Zero draws from the source's own sequence: fresh
	// independent samples per request.
	Seed uint64
	// Into, when non-nil, receives the samples in place — the
	// zero-allocation path for Draw. It must hold at least T pairs
	// (ErrBadRequest otherwise). DrawFunc streams through its own
	// batches and uses Into only to default T.
	Into []geom.Pair
}

// Resolve validates the request for a buffered draw and returns the
// effective sample count: T, or len(Into) when T is zero and a
// buffer was given. Errors wrap ErrBadRequest.
func (r Request) Resolve() (int, error) {
	t, err := r.ResolveStream()
	if err != nil {
		return 0, err
	}
	if r.Into != nil && len(r.Into) < t {
		return 0, fmt.Errorf("%w: Into holds %d pairs, %d requested", ErrBadRequest, len(r.Into), t)
	}
	return t, nil
}

// ResolveStream is Resolve for streaming draws: Into still defaults
// T when T is zero, but its length is not validated — DrawFunc never
// writes into it, so a Request built for Draw streams unchanged.
func (r Request) ResolveStream() (int, error) {
	t := r.T
	if t == 0 && r.Into != nil {
		t = len(r.Into)
	}
	if t <= 0 {
		return 0, fmt.Errorf("%w: non-positive sample count %d", ErrBadRequest, t)
	}
	return t, nil
}

// Result is the answer to one Draw: the samples plus per-request
// stats. The root package re-exports it as srj.Result.
type Result struct {
	// Pairs holds the drawn samples — backed by Request.Into when one
	// was provided. On error it holds the samples drawn before the
	// failure.
	Pairs []geom.Pair
	// Elapsed is the request latency as this source observed it: for
	// an engine the full in-process request (clone checkout, sampling,
	// return to the pool); for a remote client the wall-clock of the
	// network call.
	Elapsed time.Duration
}

// Count returns the number of samples drawn.
func (r Result) Count() int { return len(r.Pairs) }

// Stats aggregates the request-level counters of an Engine. All
// durations cover the full request — clone checkout, sampling, and
// return to the pool. The JSON form (snake_case, durations in
// nanoseconds as the _ns suffixes say) is served verbatim by the
// HTTP API's /v1/stats and /v1/engines.
type Stats struct {
	// Requests counts completed requests, including failed ones.
	Requests uint64 `json:"requests"`
	// Samples counts join samples drawn across all requests.
	Samples uint64 `json:"samples"`
	// Failures is the total number of requests that returned an
	// error: ClientFailures + SamplerFailures.
	Failures uint64 `json:"failures"`
	// ClientFailures counts request-level errors: a bad or over-cap
	// t, an error returned by a SampleFunc callback, or a request
	// context that expired or was cancelled mid-draw. These are
	// problems with individual requests (or the capacity to serve
	// them in time), not with the sampling structures.
	ClientFailures uint64 `json:"client_failures"`
	// SamplerFailures counts errors from the sampling algorithm
	// itself (core.ErrLowAcceptance: the rejection budget was
	// exhausted). A monitoring system should alert on these — they
	// indicate a degenerate dataset/window, not a misbehaving client.
	SamplerFailures uint64 `json:"sampler_failures"`
	// Trials counts sampling iterations including rejections, summed
	// across requests. Samples/Trials is the observed acceptance rate
	// — the paper's load-bearing performance signal.
	Trials uint64 `json:"trials"`
	// TotalLatency is the summed request latency.
	TotalLatency time.Duration `json:"total_latency_ns"`
	// MaxLatency is the slowest single request.
	MaxLatency time.Duration `json:"max_latency_ns"`
	// Latency is the full request-latency distribution over the
	// shared obs.DrawDurationBuckets, one observation per request.
	Latency obs.HistogramSnapshot `json:"latency"`
}

// AvgLatency returns the mean request latency.
func (s Stats) AvgLatency() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.TotalLatency / time.Duration(s.Requests)
}

// AcceptanceRate returns accepted samples over total sampling trials,
// or NaN before any trial ran.
func (s Stats) AcceptanceRate() float64 {
	if s.Trials == 0 {
		return math.NaN()
	}
	return float64(s.Samples) / float64(s.Trials)
}

// Engine serves concurrent sampling requests against join structures
// that were built exactly once. All methods are safe for concurrent
// use by any number of goroutines.
type Engine struct {
	pool *core.ClonePool
	name string
	size int

	buffers sync.Pool // *[]geom.Pair batches for SampleFunc

	maxT atomic.Int64 // per-request sample cap; 0 = unlimited

	requests    atomic.Uint64
	samples     atomic.Uint64
	trials      atomic.Uint64
	clientFails atomic.Uint64
	samplerFail atomic.Uint64
	latencyNS   atomic.Int64
	maxNS       atomic.Int64

	// hist observes full-request latency — exactly once per request,
	// in record, never inside the per-trial rejection loop (per-trial
	// clock reads measurably slowed the sampler; see internal/core).
	hist *obs.Histogram
}

// New prepares parent through Count — the only time the grid, corner
// indexes, and alias tables are built — and returns an Engine serving
// requests against those shared structures. seed drives the
// per-checkout stream reseeds: engines created with equal seeds serve
// identical per-request samples to a sequential client. Construction
// fails fast with core.ErrEmptyJoin on a provably empty join and with
// core.ErrNoParallelWithoutReplacement when the parent samples
// without replacement.
func New(parent core.Cloner, seed uint64) (*Engine, error) {
	pool, err := core.NewClonePool(parent, seed)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		pool: pool,
		name: parent.Name(),
		size: parent.SizeBytes(),
		hist: obs.NewHistogram(obs.DrawDurationBuckets),
	}
	e.buffers.New = func() any {
		buf := make([]geom.Pair, DefaultBatch)
		return &buf
	}
	return e, nil
}

// NewShared is New for an engine over structures that other engines
// share: it reports size as its footprint instead of
// parent.SizeBytes(), so a registry summing the sizes of resident
// engines counts the shared structures once.
func NewShared(parent core.Cloner, seed uint64, size int) (*Engine, error) {
	e, err := New(parent, seed)
	if err != nil {
		return nil, err
	}
	e.size = size
	return e, nil
}

// Name identifies the underlying algorithm.
func (e *Engine) Name() string { return e.name }

// SetMaxT caps the number of samples a single request may ask for;
// n <= 0 removes the cap. The cap is checked before any allocation,
// so it bounds per-request memory at roughly n*sizeof(Pair) bytes.
// Safe to call concurrently with serving.
func (e *Engine) SetMaxT(n int) {
	if n < 0 {
		n = 0
	}
	e.maxT.Store(int64(n))
}

// MaxT reports the per-request sample cap (0 = unlimited).
func (e *Engine) MaxT() int { return int(e.maxT.Load()) }

// capT rejects an effective sample count beyond the SetMaxT cap. The
// returned error is a client error for Stats purposes.
func (e *Engine) capT(t int) error {
	if maxT := e.maxT.Load(); maxT > 0 && int64(t) > maxT {
		return fmt.Errorf("%w: t=%d > cap %d", ErrSampleCap, t, maxT)
	}
	return nil
}

// checkout obtains a pooled clone: seeded with the request's own seed
// when one was given, from the pool's per-checkout sequence otherwise.
func (e *Engine) checkout(seed uint64) (core.Sampler, error) {
	if seed != 0 {
		return e.pool.GetSeeded(seed)
	}
	return e.pool.Get()
}

// SizeBytes estimates the retained footprint of the shared structures
// (excluding per-clone scratch, which is negligible).
func (e *Engine) SizeBytes() int { return e.size }

// Warm pre-creates n idle clones, typically one per expected
// concurrent client, so no request pays clone-construction cost.
func (e *Engine) Warm(n int) error { return e.pool.Warm(n) }

// Draw serves one request: it draws req.T uniform independent join
// samples (into req.Into when provided — the zero-allocation hot
// path — a fresh slice otherwise) and returns them with per-request
// stats. The request is rejected before any allocation when it is
// malformed (ErrBadRequest) or exceeds the SetMaxT cap (ErrSampleCap).
// ctx is checked between DefaultBatch-sized chunks, so cancellation
// stops an in-flight draw promptly; the partial result drawn so far
// is returned alongside ctx.Err().
func (e *Engine) Draw(ctx context.Context, req Request) (Result, error) {
	start := time.Now()
	t, err := req.Resolve()
	if err == nil {
		err = e.capT(t)
	}
	if err != nil {
		e.record(start, 0, err)
		return Result{Elapsed: time.Since(start)}, err
	}
	dst := req.Into
	if dst == nil {
		dst = make([]geom.Pair, t)
	}
	dst = dst[:t]
	n, err := e.drawInto(ctx, start, req.Seed, dst)
	return Result{Pairs: dst[:n], Elapsed: time.Since(start)}, err
}

// drawInto fills dst through a pooled clone, checking ctx between
// chunks, and folds the finished request into the stats. It is the
// shared core of Draw and the deprecated SampleInto shim.
func (e *Engine) drawInto(ctx context.Context, start time.Time, seed uint64, dst []geom.Pair) (int, error) {
	if err := ctx.Err(); err != nil {
		e.record(start, 0, err)
		return 0, err
	}
	s, err := e.checkout(seed)
	if err != nil {
		e.record(start, 0, err)
		return 0, err
	}
	trialsBefore := s.Stats().Iterations
	drawn := 0
	for drawn < len(dst) && err == nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		end := drawn + DefaultBatch
		if end > len(dst) {
			end = len(dst)
		}
		var n int
		n, err = core.SampleInto(s, dst[drawn:end])
		drawn += n
	}
	e.trials.Add(s.Stats().Iterations - trialsBefore)
	e.pool.Put(s)
	e.record(start, drawn, err)
	return drawn, err
}

// DrawFunc serves one request for req.T samples by streaming them
// through a pooled batch buffer: fn is invoked with successive batches
// (DefaultBatch pairs, the final one shorter) whose backing array is
// reused across batches and requests — fn must not retain it. An
// error from fn aborts the request and is returned verbatim. ctx is
// checked between batches: a context canceled mid-stream stops the
// draw promptly and returns ctx.Err(). req.Into never receives
// samples — it only defaults T (see Request.ResolveStream), so a
// Request built for Draw streams unchanged.
func (e *Engine) DrawFunc(ctx context.Context, req Request, fn func(batch []geom.Pair) error) error {
	start := time.Now()
	t, err := req.ResolveStream()
	if err == nil {
		err = e.capT(t)
	}
	if err != nil {
		e.record(start, 0, err)
		return err
	}
	if err := ctx.Err(); err != nil {
		e.record(start, 0, err)
		return err
	}
	s, err := e.checkout(req.Seed)
	if err != nil {
		e.record(start, 0, err)
		return err
	}
	trialsBefore := s.Stats().Iterations
	buf := e.buffers.Get().(*[]geom.Pair)
	drawn := 0
	for drawn < t && err == nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
			break
		}
		batch := *buf
		if rem := t - drawn; rem < len(batch) {
			batch = batch[:rem]
		}
		var n int
		n, err = core.SampleInto(s, batch)
		drawn += n
		if n > 0 {
			if ferr := fn(batch[:n]); ferr != nil && err == nil {
				err = ferr
			}
		}
	}
	e.trials.Add(s.Stats().Iterations - trialsBefore)
	e.buffers.Put(buf)
	e.pool.Put(s)
	e.record(start, drawn, err)
	return err
}

// SampleInto serves one request: it draws len(dst) uniform independent
// join samples into the caller's buffer and returns the number
// written. It backs the root package's deprecated Engine.SampleInto
// shim; new code uses Draw with Request.Into. An empty dst returns
// immediately without checking out a clone or counting a request in
// Stats (the pre-Source implementation counted it).
func (e *Engine) SampleInto(dst []geom.Pair) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	return e.drawInto(context.Background(), time.Now(), 0, dst)
}

// Sample serves one request for t samples into a fresh slice. The
// request is rejected — before the slice is allocated — when t is
// negative or exceeds the SetMaxT cap, so no request can force an
// unbounded allocation. It backs the root package's deprecated
// Engine.Sample shim; new code uses Draw. t == 0 returns immediately
// without checking out a clone or counting a request in Stats (the
// pre-Source implementation counted it).
func (e *Engine) Sample(t int) ([]geom.Pair, error) {
	if t == 0 {
		return nil, nil
	}
	res, err := e.Draw(context.Background(), Request{T: t})
	return res.Pairs, err
}

// SampleFunc serves one request for t samples, streaming them to fn
// in pooled batches. It backs the root package's deprecated
// Engine.SampleFunc shim; new code uses DrawFunc.
func (e *Engine) SampleFunc(t int, fn func(batch []geom.Pair) error) error {
	if t == 0 {
		return nil
	}
	return e.DrawFunc(context.Background(), Request{T: t}, fn)
}

// record folds one finished request into the aggregate counters.
// Errors are classified: core.ErrLowAcceptance is the sampler giving
// up (alertable); everything else a request can produce — bad t, an
// over-cap t, a SampleFunc callback error — is the client's fault.
func (e *Engine) record(start time.Time, samples int, err error) {
	lat := time.Since(start)
	e.requests.Add(1)
	e.samples.Add(uint64(samples))
	if err != nil {
		if errors.Is(err, core.ErrLowAcceptance) {
			e.samplerFail.Add(1)
		} else {
			e.clientFails.Add(1)
		}
	}
	e.latencyNS.Add(int64(lat))
	e.hist.Observe(lat.Seconds())
	for {
		cur := e.maxNS.Load()
		if int64(lat) <= cur || e.maxNS.CompareAndSwap(cur, int64(lat)) {
			return
		}
	}
}

// Stats returns a snapshot of the aggregate request counters. Under
// concurrent traffic the fields are individually, not jointly,
// consistent.
func (e *Engine) Stats() Stats {
	client := e.clientFails.Load()
	sampler := e.samplerFail.Load()
	return Stats{
		Requests:        e.requests.Load(),
		Samples:         e.samples.Load(),
		Trials:          e.trials.Load(),
		Failures:        client + sampler,
		ClientFailures:  client,
		SamplerFailures: sampler,
		TotalLatency:    time.Duration(e.latencyNS.Load()),
		MaxLatency:      time.Duration(e.maxNS.Load()),
		Latency:         e.hist.Snapshot(),
	}
}
