package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	srj "repro"
)

func TestParseWarm(t *testing.T) {
	keys, err := parseWarm("nyc:100; castreet:50:kds:7 ;uniform:25.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []srj.EngineKey{
		{Dataset: "nyc", L: 100, Algorithm: "bbst"},
		{Dataset: "castreet", L: 50, Algorithm: "kds", Seed: 7},
		{Dataset: "uniform", L: 25.5, Algorithm: "bbst"},
	}
	if len(keys) != len(want) {
		t.Fatalf("got %d keys", len(keys))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key %d = %+v, want %+v", i, keys[i], want[i])
		}
	}
	for _, bad := range []string{"nyc", "nyc:abc", "nyc:100:bbst:xyz", "a:1:b:2:c"} {
		if _, err := parseWarm(bad); err == nil {
			t.Errorf("parseWarm(%q) accepted", bad)
		}
	}
	if keys, err := parseWarm(""); err != nil || len(keys) != 0 {
		t.Errorf("empty spec: %v, %v", keys, err)
	}
}

func TestBuildServerBadFlags(t *testing.T) {
	for _, load := range []string{"noequals", "=path", "name=", "x=/does/not/exist"} {
		if _, err := buildServer(&config{n: 100, dseed: 1, load: load, maxT: 100}, nil); err == nil {
			t.Errorf("-load %q accepted", load)
		}
	}
	if _, err := parseFlags([]string{"-budget-mb", "-1"}, os.Stderr); err == nil {
		t.Error("negative -budget-mb accepted")
	}
	if _, err := parseFlags([]string{"-maxt", "0"}, os.Stderr); err == nil {
		t.Error("zero -maxt accepted")
	}
}

// TestServerEndToEnd boots the real binary path — flag parsing,
// dataset loading, warmup, listener — and serves a client.
func TestServerEndToEnd(t *testing.T) {
	// A file-backed dataset exercises the -load path.
	dir := t.TempDir()
	path := filepath.Join(dir, "pts.bin")
	if err := srj.SavePoints(path, srj.MustGenerate("uniform", 2000, 5)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-n", "1000",
			"-load", "mine=" + path,
			"-warm", "uniform:200",
			"-maxt", "10000",
		}, os.Stderr, func(addr string) { addrc <- addr })
	}()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server did not come up")
	}

	cl := srj.NewClient("http://" + addr)
	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	// The warmed engine serves without a build (builds stays 1).
	if _, err := cl.Sample(ctx, srj.SampleRequest{Dataset: "uniform", L: 200, T: 500}); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.Builds != 1 || st.Registry.Hits != 1 {
		t.Fatalf("warmed key rebuilt: %+v", st.Registry)
	}
	// The file-backed dataset serves too.
	pairs, err := cl.Sample(ctx, srj.SampleRequest{Dataset: "mine", L: 500, T: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 200 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	// Over-cap requests are refused.
	if _, err := cl.Sample(ctx, srj.SampleRequest{Dataset: "mine", L: 500, T: 10001}); err == nil ||
		!strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap err = %v", err)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// startShard boots one srjserver through the real run() path and
// returns its listen address, a kill function (cancels the context
// and waits for a clean exit), and the exit channel.
func startShard(t *testing.T, args []string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, args, os.Stderr, func(addr string) { addrc <- addr })
	}()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-errc:
		cancel()
		t.Fatalf("shard exited early: %v", err)
	case <-time.After(30 * time.Second):
		cancel()
		t.Fatal("shard did not come up")
	}
	killed := false
	kill := func() {
		if killed {
			return
		}
		killed = true
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("shard exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("shard did not shut down")
		}
	}
	t.Cleanup(kill)
	return addr, kill
}

// TestKillAndRestartRecovery is the durability acceptance test: a
// two-shard fleet behind a router takes inserts and deletes, one
// shard is killed and restarted against its -data-dir, and the fleet
// must come back indistinguishable — seeded draws against both shards
// byte-identical, no deleted pair served, last applied update ID
// agreeing across the fleet.
func TestKillAndRestartRecovery(t *testing.T) {
	const n, dseed = 400, 5
	dirs := []string{t.TempDir(), t.TempDir()}
	shardArgs := func(addr, dir string) []string {
		return []string{
			"-addr", addr,
			"-n", "400",
			"-dseed", "5",
			"-maxt", "50000",
			"-data-dir", dir,
		}
	}
	addr0, _ := startShard(t, shardArgs("127.0.0.1:0", dirs[0]))
	addr1, kill1 := startShard(t, shardArgs("127.0.0.1:0", dirs[1]))

	rt, err := srj.NewRouter([]string{"http://" + addr0, "http://" + addr1}, srj.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	key := srj.EngineKey{Dataset: "uniform", L: 300, Algorithm: "bbst", Seed: 9}
	ctx := context.Background()

	// The builtin resolver regenerates the same points on every boot,
	// so the victim's ID is knowable here.
	victim := srj.MustGenerate("uniform", n, dseed)[2].ID

	// Three updates through the router (broadcast to both shards),
	// kept far below the snapshot cadence so recovery replays them onto
	// the same base build, and seeded draws stay comparable across
	// shards after recovery.
	bound := rt.Bind(key)
	for i, u := range []srj.Update{
		{InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}},
			InsertS: []srj.Point{{ID: 4001, X: 9100, Y: 9100}}},
		{DeleteR: []int32{victim}},
		{InsertS: []srj.Point{{ID: 4002, X: 8950, Y: 9050}}},
	} {
		if _, err := bound.Apply(ctx, u); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	// Kill shard 1 and restart it on the same address against the same
	// data dir. The resolver hands it the seed data; the store must
	// come back from snapshot+log, not from scratch.
	kill1()
	if addr1b, _ := startShard(t, shardArgs(addr1, dirs[1])); addr1b != addr1 {
		t.Fatalf("restarted shard bound %s, want %s", addr1b, addr1)
	}

	// Seeded draws direct to each shard must be byte-identical: same
	// base data, same replayed updates, same generation, same seed.
	clients := []*srj.Client{srj.NewClient("http://" + addr0), srj.NewClient("http://" + addr1)}
	var draws [][]srj.Pair
	for i, cl := range clients {
		res, err := cl.Bind(key).Draw(ctx, srj.Request{T: 5000, Seed: 42})
		if err != nil {
			t.Fatalf("shard %d draw: %v", i, err)
		}
		sawInsert := false
		for _, p := range res.Pairs {
			if p.R.ID == victim {
				t.Fatalf("shard %d served deleted point %d after restart", i, victim)
			}
			if p.R.ID == 4000 {
				sawInsert = true
			}
		}
		if !sawInsert {
			t.Fatalf("shard %d lost the inserted cluster", i)
		}
		draws = append(draws, res.Pairs)
	}
	if len(draws[0]) != len(draws[1]) {
		t.Fatalf("draw sizes differ: %d vs %d", len(draws[0]), len(draws[1]))
	}
	for i := range draws[0] {
		if draws[0][i] != draws[1][i] {
			t.Fatalf("pair %d differs across shards: %v vs %v", i, draws[0][i], draws[1][i])
		}
	}

	// The fleet agrees on the last applied update ID.
	for i, cl := range clients {
		stats, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, info := range stats.Stores {
			if info.Key.Dataset != key.Dataset {
				continue
			}
			found = true
			if info.LastAppliedID != 3 {
				t.Fatalf("shard %d last applied %d, want 3", i, info.LastAppliedID)
			}
		}
		if !found {
			t.Fatalf("shard %d reports no store for %s", i, key.Dataset)
		}
	}
}
