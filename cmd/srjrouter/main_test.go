package main

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	srj "repro"
)

// startBackends brings up n in-process srjservers over small built-in
// datasets and returns their base URLs.
func startBackends(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := srj.NewServer(&srj.ServerOptions{DatasetSize: 2000, MaxT: 10_000})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// TestLiveMembership is the ring-resize e2e: a two-backend fleet
// takes sequenced updates, a third backend joins the live ring
// through the -admin CLI (probe + state transfer + swap), an old
// backend is removed and killed — and the fleet converges: every
// member reports the same last applied update ID, and draws reflect
// every insert and delete, including from the backend that joined
// after the updates it never saw broadcast.
func TestLiveMembership(t *testing.T) {
	const n = 400
	newBackend := func() (string, *httptest.Server) {
		srv, err := srj.NewServer(&srj.ServerOptions{DatasetSize: n, MaxT: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return ts.URL, ts
	}
	b0, oldTS := newBackend()
	b1, _ := newBackend()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-probe-interval", "100ms",
			b0, b1,
		}, os.Stderr, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("router exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("router did not come up")
	}
	routerURL := "http://" + addr

	cl := srj.NewClient(routerURL)
	key := srj.EngineKey{Dataset: "uniform", L: 300, Algorithm: "bbst", Seed: 9}
	bound := cl.Bind(key)
	// The default resolver seeds R from DatasetSeed 1, so the victim's
	// ID is knowable here.
	victim := srj.MustGenerate("uniform", n, 1)[2].ID

	for i, u := range []srj.Update{
		{InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}},
			InsertS: []srj.Point{{ID: 4001, X: 9100, Y: 9100}}},
		{DeleteR: []int32{victim}},
	} {
		if _, err := bound.Apply(ctx, u); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	// A third backend joins the live ring through the admin CLI. The
	// add blocks until the router has probed it and transferred both
	// updates' worth of state, so no sleep is needed.
	b2, _ := newBackend()
	if err := run(ctx, []string{"-admin", routerURL, "add", b2}, os.Stderr, nil); err != nil {
		t.Fatalf("admin add: %v", err)
	}

	// An update after the join broadcasts to all three — the new member
	// continues the sequence its installed snapshot seated.
	if _, err := bound.Apply(ctx, srj.Update{InsertS: []srj.Point{{ID: 4002, X: 8950, Y: 9050}}}); err != nil {
		t.Fatalf("post-join update: %v", err)
	}

	// Convergence: the fleet stats report the key's store on all three
	// backends at the same last applied update ID.
	lastApplied := func(want int) map[string]uint64 {
		t.Helper()
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		for _, info := range st.Stores {
			if info.Key.Dataset == key.Dataset {
				got[info.Backend] = info.LastAppliedID
			}
		}
		if len(got) != want {
			t.Fatalf("store reported by %d backends, want %d: %v", len(got), want, got)
		}
		return got
	}
	for backend, id := range lastApplied(3) {
		if id != 3 {
			t.Fatalf("backend %s at update %d, want 3", backend, id)
		}
	}

	// An original backend leaves the ring, then dies for good.
	if err := run(ctx, []string{"-admin", routerURL, "remove", b0}, os.Stderr, nil); err != nil {
		t.Fatalf("admin remove: %v", err)
	}
	oldTS.Close()
	var routing struct {
		Backends []struct {
			Addr string `json:"addr"`
		} `json:"backends"`
	}
	resp, err := http.Get(routerURL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&routing)
	resp.Body.Close()
	if err != nil || len(routing.Backends) != 2 {
		t.Fatalf("ring after remove: %+v, err %v", routing, err)
	}
	for _, b := range routing.Backends {
		if b.Addr == b0 {
			t.Fatalf("removed backend %s still on the ring", b0)
		}
	}

	// Draws converge: through the router and direct from the late
	// joiner, every insert is live and the delete holds. The direct
	// pair proves the transferred state serves, not just answers stats.
	checkDraw := func(who string, src srj.Source) {
		t.Helper()
		res, err := src.Draw(ctx, srj.Request{T: 5000, Seed: 42})
		if err != nil {
			t.Fatalf("%s draw: %v", who, err)
		}
		sawInsert := false
		for _, p := range res.Pairs {
			if p.R.ID == victim {
				t.Fatalf("%s served deleted point %d", who, victim)
			}
			if p.R.ID == 4000 {
				sawInsert = true
			}
		}
		if !sawInsert {
			t.Fatalf("%s lost the inserted cluster", who)
		}
	}
	checkDraw("router", bound)
	checkDraw("late joiner", srj.NewClient(b2).Bind(key))

	// Seeded draws from the late joiner are reproducible: the
	// transferred store is a deterministic serving replica.
	direct := srj.NewClient(b2).Bind(key)
	a, err := direct.Draw(ctx, srj.Request{T: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := direct.Draw(ctx, srj.Request{T: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("late joiner not deterministic at sample %d", i)
		}
	}

	// And the survivors agree on the sequence.
	for backend, id := range lastApplied(2) {
		if id != 3 {
			t.Fatalf("backend %s at update %d after remove, want 3", backend, id)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not shut down")
	}
}

func TestRunNoBackends(t *testing.T) {
	if err := run(context.Background(), nil, os.Stderr, nil); err == nil {
		t.Fatal("no backends accepted")
	}
}

// TestRouterEndToEnd boots the real binary path — flag parsing, ring
// construction, listener — and serves an unmodified srj client
// through it: the router proxy is wire-compatible with srjserver, so
// the same client code works against a single server and a fleet.
func TestRouterEndToEnd(t *testing.T) {
	backends := startBackends(t, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-backends", backends[0] + "," + backends[1],
			"-probe-interval", "100ms",
			backends[2], // positional backends merge with -backends
		}, os.Stderr, func(addr string) { addrc <- addr })
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("router exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("router did not come up")
	}

	cl := srj.NewClient("http://" + addr)
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	key := srj.EngineKey{Dataset: "uniform", L: 300, Seed: 1}
	src := cl.Bind(key)

	// A seeded draw through the router proxy is byte-identical to the
	// same draw straight from the key's shard: the proxy re-frames the
	// stream, it does not reinterpret it.
	res, err := src.Draw(ctx, srj.Request{T: 2000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2000 {
		t.Fatalf("got %d pairs", len(res.Pairs))
	}
	for _, b := range backends {
		direct, err := srj.NewClient(b).Bind(key).Draw(ctx, srj.Request{T: 2000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Pairs {
			if res.Pairs[i] != direct.Pairs[i] {
				t.Fatalf("proxy and backend %s diverged at sample %d", b, i)
			}
		}
	}

	// The JSON transport proxies too.
	pairs, err := cl.SampleJSON(ctx, srj.SampleRequest{Dataset: "uniform", L: 300, Seed: 1, T: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 100 {
		t.Fatalf("JSON: got %d pairs", len(pairs))
	}

	// Semantic refusals surface through the proxy with their sentinel
	// AND their pre-stream HTTP status intact: a refused binary draw
	// is a 400, exactly as from srjserver — never a 200 hiding an
	// error frame.
	var apiErr *srj.APIError
	if _, err := src.Draw(ctx, srj.Request{T: 10_001}); !errors.Is(err, srj.ErrSampleCap) {
		t.Fatalf("over-cap through proxy: err = %v, want ErrSampleCap", err)
	} else if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("over-cap through proxy: %v, want a pre-stream HTTP 400", err)
	}
	if _, err := cl.Bind(srj.EngineKey{Dataset: "no-such-set", L: 300}).Draw(ctx, srj.Request{T: 10}); err == nil {
		t.Fatal("unknown dataset accepted through proxy")
	}

	// The rest of the srjserver client API works against the router
	// unchanged: stats aggregate the fleet, the engine list
	// concatenates it, and eviction broadcasts across it.
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.Builds < 3 || st.MaxT != 10_000 {
		t.Fatalf("aggregate stats = %+v, want >=3 fleet builds and the backends' MaxT", st)
	}
	engines, err := cl.Engines(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(engines) < 3 {
		t.Fatalf("fleet engine list has %d entries, want >= 3", len(engines))
	}
	evicted, err := cl.EvictEngine(ctx, key)
	if err != nil || !evicted {
		t.Fatalf("broadcast evict through proxy: %v, %v", evicted, err)
	}
	if evicted, err = cl.EvictEngine(ctx, key); err != nil || evicted {
		t.Fatalf("double evict through proxy: %v, %v (want false)", evicted, err)
	}

	// Routing telemetry lives on its own path, off the shared surface.
	resp, err := http.Get("http://" + addr + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	var routing struct {
		Backends []struct {
			Addr    string `json:"addr"`
			Healthy bool   `json:"healthy"`
		} `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&routing)
	resp.Body.Close()
	if err != nil || len(routing.Backends) != 3 {
		t.Fatalf("routing stats: %+v, err %v", routing, err)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not shut down")
	}
}
