package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro"
)

// Span names, one per layer boundary the benchmark can see from
// outside the program. Each span's parent is the enclosing span of
// the parent name with the same request ID.
const (
	spanDraw           = "bench.draw"             // one Source draw of the timed loop
	spanApply          = "bench.apply"            // one update batch
	spanClientRT       = "srj.roundtrip"          // client transport, POST /v1/sample: RoundTrip to body close
	spanClientRTUpdate = "srj.roundtrip.update"   // client transport, POST /v1/update
	spanRouterSample   = "router.sample"          // router handler, POST /v1/sample
	spanRouterUpdate   = "router.update"          // router handler, POST /v1/update
	spanUpstreamSample = "router.upstream.sample" // router's upstream transport, one attempt
	spanUpstreamUpdate = "router.upstream.update" // router's upstream transport, one shard
	spanServerSample   = "server.sample"          // shard handler, POST /v1/sample
	spanServerUpdate   = "server.update"          // shard handler, POST /v1/update
)

var parentName = map[string]string{
	spanClientRT:       spanDraw,
	spanClientRTUpdate: spanApply,
	spanRouterSample:   spanClientRT,
	spanRouterUpdate:   spanClientRTUpdate,
	spanUpstreamSample: spanRouterSample,
	spanUpstreamUpdate: spanRouterUpdate,
	spanServerSample:   spanUpstreamSample,
	spanServerUpdate:   spanUpstreamUpdate,
}

// span is one recorded interval. Parent is the index of the enclosing
// span in the recorder, or -1; it is resolved when the run ends.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, and an untraced run installs no wrapper at all.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) record(name, req string, start, end time.Time) {
	s := span{Name: name, Req: req, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far (set-up traffic).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// link resolves every span's parent: the enclosing span named
// parentName that shares its request ID.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		want, ok := parentName[s.Name]
		if !ok {
			continue
		}
		for _, j := range byReq[s.Req] {
			p := t.spans[j]
			if p.Name == want && p.Start <= s.Start && s.End <= p.End {
				s.Parent = j
				break
			}
		}
	}
	return slices.Clone(t.spans)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps an http.Handler with spans for the sample and update
// endpoints. The request ID is the one the client set (the router
// forwards it to backends), so router and shard spans join the
// client's.
func (t *tracer) handler(sampleSpan, updateSpan string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		if r.Method == http.MethodPost {
			switch r.URL.Path {
			case "/v1/sample":
				name = sampleSpan
			case "/v1/update":
				name = updateSpan
			}
		}
		if name == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, r.Header.Get(srj.RequestIDHeader), start, time.Now())
	})
}

// transport wraps a RoundTripper with a span from RoundTrip to the
// close of the response body, for the sample and update endpoints.
type transport struct {
	t           *tracer
	base        http.RoundTripper
	sample, upd string
}

func (tr *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	name := ""
	if r.Method == http.MethodPost {
		switch r.URL.Path {
		case "/v1/sample":
			name = tr.sample
		case "/v1/update":
			name = tr.upd
		}
	}
	if name == "" {
		return tr.base.RoundTrip(r)
	}
	start := time.Now()
	resp, err := tr.base.RoundTrip(r)
	req := r.Header.Get(srj.RequestIDHeader)
	if err != nil {
		tr.t.record(name, req, start, time.Now())
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { tr.t.record(name, req, start, time.Now()) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// layerTimes are the per-request means (ms) of each span, and the
// self times derived from them.
type layerTimes struct {
	draws int

	draw, clientRT, routerSample, upstreamSample, serverSample float64
	routerUpdate, serverUpdate, broadcastSkew                  float64
	routerSelf                                                 float64 // router.sample minus its upstream attempts
}

// analyze folds linked spans into per-layer means. Only spans that
// descend from a draw or a batch of the timed loop or a probe count: the
// untimed first write and the count probes carry no request ID of the
// benchmark's. A layer's self time is its span minus the part of it
// that its child spans cover.
func analyze(spans []span) layerTimes {
	var lt layerTimes
	sum := map[string]time.Duration{}
	count := map[string]int{}
	children := map[int][]int{}
	for i, s := range spans {
		if !rooted(spans, i) {
			continue
		}
		sum[s.Name] += s.dur()
		count[s.Name]++
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	avg := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return ms(sum[name]) / float64(count[name])
	}
	lt.draws = count[spanDraw]
	lt.draw, lt.clientRT = avg(spanDraw), avg(spanClientRT)
	lt.routerSample, lt.upstreamSample, lt.serverSample = avg(spanRouterSample), avg(spanUpstreamSample), avg(spanServerSample)
	lt.routerUpdate, lt.serverUpdate = avg(spanRouterUpdate), avg(spanServerUpdate)

	var self, skew time.Duration
	var nSkew int
	for i, s := range spans {
		if !rooted(spans, i) {
			continue
		}
		switch s.Name {
		case spanRouterSample:
			self += s.dur() - covered(spans, children[i])
		case spanRouterUpdate:
			var lo, hi time.Duration
			for k, c := range children[i] {
				d := spans[c].dur()
				if k == 0 || d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
			if len(children[i]) > 0 {
				skew += hi - lo
				nSkew++
			}
		}
	}
	if n := count[spanRouterSample]; n > 0 {
		lt.routerSelf = ms(self) / float64(n)
	}
	if nSkew > 0 {
		lt.broadcastSkew = ms(skew) / float64(nSkew)
	}
	return lt
}

// rooted reports whether span i descends from a bench.draw or
// bench.apply span.
func rooted(spans []span, i int) bool {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return spans[i].Name == spanDraw || spans[i].Name == spanApply
}

// covered returns the length of the union of the given spans.
func covered(spans []span, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := iv[0]
	for _, v := range iv[1:] {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		cur[1] = max(cur[1], v[1])
	}
	total += cur[1] - cur[0]
	return time.Duration(total)
}
