package srj

// Tests of the public serving API: srj.NewServer as an embeddable
// handler, srj.NewClient against it, warmup, and error mapping.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/wal"
)

func newTestServer(t *testing.T, opts *ServerOptions) (*Server, *Client, func()) {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	return s, NewClient(ts.URL), ts.Close
}

func TestPublicServerServesBuiltinDatasets(t *testing.T) {
	s, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000})
	defer done()
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	const l = 200.0
	pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: l, Seed: 1, T: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1000 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if !Window(p.R, l).Contains(p.S) {
			t.Fatalf("invalid pair %v", p)
		}
	}
	if st := s.RegistryStats(); st.Builds != 1 || st.Entries != 1 {
		t.Fatalf("registry stats = %+v", st)
	}
	// Same key again: no rebuild.
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: l, Seed: 1, T: 10}); err != nil {
		t.Fatal(err)
	}
	if st := s.RegistryStats(); st.Builds != 1 || st.Hits < 1 {
		t.Fatalf("repeat request rebuilt: %+v", st)
	}
}

func TestPublicServerWarm(t *testing.T) {
	s, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000})
	defer done()
	ctx := context.Background()
	key := EngineKey{Dataset: "gaussian", L: 150, Algorithm: "bbst", Seed: 3}
	if err := s.Warm(ctx, key); err != nil {
		t.Fatal(err)
	}
	if st := s.RegistryStats(); st.Builds != 1 {
		t.Fatalf("warm did not build: %+v", st)
	}
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "gaussian", L: 150, Seed: 3, T: 100}); err != nil {
		t.Fatal(err)
	}
	st := s.RegistryStats()
	if st.Builds != 1 || st.Hits != 1 {
		t.Fatalf("warmed key was rebuilt: %+v", st)
	}
	engines := s.Engines()
	if len(engines) != 1 || engines[0].Key != key {
		t.Fatalf("engines = %+v", engines)
	}
}

func TestPublicServerErrorMapping(t *testing.T) {
	_, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 500, MaxT: 1000})
	defer done()
	ctx := context.Background()
	cases := []struct {
		name   string
		req    SampleRequest
		status int
	}{
		{"unknown dataset", SampleRequest{Dataset: "atlantis", L: 100, T: 10}, 400},
		{"unknown algorithm", SampleRequest{Dataset: "uniform", L: 100, Algorithm: "magic", T: 10}, 400},
		{"bad extent", SampleRequest{Dataset: "uniform", L: -3, T: 10}, 400},
		{"over cap", SampleRequest{Dataset: "uniform", L: 100, T: 5000}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cl.Sample(ctx, tc.req)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != tc.status {
				t.Fatalf("err = %v, want APIError %d", err, tc.status)
			}
		})
	}
}

// TestPublicServerDatasetMemoized: distinct keys over one dataset
// name share a single resolution — the resolver must not be re-run
// (and built-ins not regenerated) per engine build.
func TestPublicServerDatasetMemoized(t *testing.T) {
	R := MustGenerate("uniform", 600, 51)
	S := MustGenerate("uniform", 600, 52)
	resolutions := 0
	opts := &ServerOptions{
		MaxT: 10_000,
		Datasets: func(name string) ([]Point, []Point, error) {
			resolutions++
			return R, S, nil
		},
	}
	_, cl, done := newTestServer(t, opts)
	defer done()
	ctx := context.Background()
	for _, req := range []SampleRequest{
		{Dataset: "d", L: 200, Seed: 1, T: 50},
		{Dataset: "d", L: 300, Seed: 1, T: 50}, // same dataset, new key
		{Dataset: "d", L: 200, Seed: 2, T: 50}, // same dataset, new key
	} {
		if _, err := cl.Sample(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if resolutions != 1 {
		t.Fatalf("resolver ran %d times, want 1", resolutions)
	}
}

// TestDatasetMemoBounded: the memo holds at most maxCachedDatasets
// names (it lives outside the engine MemoryBudget), evicting the
// least recently used; evicted names re-resolve, errors don't stick.
func TestDatasetMemoBounded(t *testing.T) {
	counts := map[string]int{}
	resolve := memoizeDatasets(func(name string) ([]Point, []Point, error) {
		counts[name]++
		if name == "bad" {
			return nil, nil, errors.New("nope")
		}
		return []Point{{ID: 1}}, []Point{{ID: 2}}, nil
	})
	for _, name := range []string{"a", "b", "a", "c", "a"} {
		if _, _, err := resolve(name); err != nil {
			t.Fatal(err)
		}
	}
	// Cap is 2: "b" was LRU when "c" arrived; "a" stayed hot.
	if counts["a"] != 1 || counts["b"] != 1 || counts["c"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if _, _, err := resolve("b"); err != nil {
		t.Fatal(err)
	}
	if counts["b"] != 2 {
		t.Fatalf("evicted name not re-resolved: %v", counts)
	}
	// Failed resolutions are retried, not cached.
	for i := 0; i < 2; i++ {
		if _, _, err := resolve("bad"); err == nil {
			t.Fatal("error swallowed")
		}
	}
	if counts["bad"] != 2 {
		t.Fatalf("failed resolution cached: %v", counts)
	}
}

func TestPublicServerCustomDatasets(t *testing.T) {
	R := MustGenerate("uniform", 800, 41)
	S := MustGenerate("uniform", 800, 42)
	opts := &ServerOptions{
		MaxT: 10_000,
		Datasets: func(name string) ([]Point, []Point, error) {
			if name != "mine" {
				return nil, nil, errors.New("unknown dataset")
			}
			return R, S, nil
		},
	}
	_, cl, done := newTestServer(t, opts)
	defer done()
	ctx := context.Background()
	pairs, err := cl.Sample(ctx, SampleRequest{Dataset: "mine", L: 300, Seed: 1, T: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 500 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// The default generators must NOT be reachable.
	if _, err := cl.Sample(ctx, SampleRequest{Dataset: "uniform", L: 300, T: 10}); err == nil {
		t.Fatal("custom resolver fell through to built-ins")
	}
}

// TestPublicServerRefusesStaticBaselineUpdates: only BBST datasets are
// mutable. POST /v1/update on a key of a static baseline answers 400
// bad_key without creating a store, and that key's static draws keep
// working.
func TestPublicServerRefusesStaticBaselineUpdates(t *testing.T) {
	s, cl, done := newTestServer(t, &ServerOptions{DatasetSize: 2000, MaxT: 10_000})
	defer done()
	ctx := context.Background()
	key := EngineKey{Dataset: "uniform", L: 200, Algorithm: string(KDS), Seed: 4}
	_, err := cl.Bind(key).Apply(ctx, Update{InsertR: []Point{{ID: 90_000, X: 1, Y: 1}}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "bad_key" {
		t.Fatalf("update on a kds key: %v, want 400 bad_key", err)
	}
	if n := len(s.stores.Infos()); n != 0 {
		t.Fatalf("refused update left %d stores", n)
	}
	res, err := cl.Bind(key).Draw(ctx, Request{T: 500, Seed: 9})
	if err != nil || len(res.Pairs) != 500 {
		t.Fatalf("static kds draw after the refused update: %d pairs, %v", len(res.Pairs), err)
	}
	for _, p := range res.Pairs {
		if !Window(p.R, key.L).Contains(p.S) {
			t.Fatalf("invalid pair %v", p)
		}
	}
}

// TestPublicServerRefusesStaticBaselineRecovery: a data dir holding a
// write-ahead log for a static baseline's key has no mutable form to
// recover into, so startup fails loudly instead of serving without it.
func TestPublicServerRefusesStaticBaselineRecovery(t *testing.T) {
	dir := t.TempDir()
	key := EngineKey{Dataset: "uniform", L: 200, Algorithm: string(RTS), Seed: 4}
	mgr, err := wal.OpenManager(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := mgr.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Append(1, Update{InsertR: []Point{{ID: 90_000, X: 1, Y: 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewServer(&ServerOptions{DatasetSize: 500, DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), string(RTS)) {
		t.Fatalf("NewServer over an rts log: %v, want a recovery error naming the algorithm", err)
	}
}
