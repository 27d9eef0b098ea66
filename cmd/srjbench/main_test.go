package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	srj "repro"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range paperOrder {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list missing %s", name)
		}
	}
}

func TestRunSelectedExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-base", "1500", "-t", "300", "-exp", "table2,figure9"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table II") {
		t.Error("output missing Table II")
	}
	if !strings.Contains(out.String(), "Figure 9") {
		t.Error("output missing Figure 9")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "tableX"}, &out); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

func TestServeMode(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-serve", "-base", "2000", "-clients", "4",
		"-requests", "5", "-reqt", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"engine built once",
		"4 clients x 5 requests x 200 samples/request",
		"samples/sec",
		"rebuild-per-request baseline",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serve output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeModeRemote: the -remote flag benchmarks a running
// srjserver — here an in-process srj.NewServer on an httptest
// listener — and must show the cached-engine path beating the
// rebuild-per-request baseline.
// TestServeModeMixedLocal: -update-rate serves through a mutable
// Store, interleaving update batches with draws.
func TestServeModeMixedLocal(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-serve", "-base", "2000", "-clients", "4",
		"-requests", "6", "-reqt", "200", "-update-rate", "0.5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"serve (mutable)",
		"update rate 0.50",
		"mixed workload finished",
		"update batches",
		"store: generation",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("mixed serve output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServeModeMixedRemote: the same mixed workload over the wire —
// update batches post /v1/update and bump the server-side generation.
func TestServeModeMixedRemote(t *testing.T) {
	srv, err := srj.NewServer(&srj.ServerOptions{DatasetSize: 2000, MaxT: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var out bytes.Buffer
	err = run(context.Background(), []string{"-serve", "-remote", ts.URL, "-dataset", "uniform",
		"-l", "200", "-clients", "3", "-requests", "6", "-reqt", "100", "-update-rate", "0.5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mixed workload finished",
		"update batches",
		"server registry:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("mixed remote output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "rebuild-per-request baseline") {
		t.Error("mixed mode ran the rebuild baseline")
	}
}

func TestServeModeRemote(t *testing.T) {
	srv, err := srj.NewServer(&srj.ServerOptions{DatasetSize: 2000, MaxT: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var out bytes.Buffer
	err = run(context.Background(), []string{"-serve", "-remote", ts.URL, "-dataset", "uniform",
		"-l", "200", "-clients", "4", "-requests", "5", "-reqt", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"engine warmed through the registry",
		"4 clients x 5 requests x 200 samples/request",
		"cached-engine throughput",
		"rebuild-per-request baseline",
		"evicted 8 baseline engines",
		"server registry:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote serve output missing %q:\n%s", want, out.String())
		}
	}
	// Every baseline request used a fresh seed, so the server must
	// have built one engine for the warm key plus one per baseline
	// request — and then evicted every baseline engine, leaving only
	// the warm key resident.
	st := srv.RegistryStats()
	if st.Builds != 1+4*2 {
		t.Errorf("server builds = %d, want 9\n%s", st.Builds, out.String())
	}
	if st.Hits < 4*5 {
		t.Errorf("server hits = %d, want >= 20", st.Hits)
	}
	if st.Entries != 1 || st.ManualEvictions != 8 || st.Evictions != 0 {
		t.Errorf("baseline engines not cleaned up: %+v", st)
	}
}

// TestServeModeRemoteSharded: several comma-separated -remote
// addresses run the same measurement through a consistent-hash
// Router. The warm key must live on exactly one shard, the baseline's
// distinct keys must spread across the fleet, and the broadcast
// eviction must leave no baseline engine resident anywhere.
func TestServeModeRemoteSharded(t *testing.T) {
	const n = 3
	servers := make([]*srj.Server, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := srj.NewServer(&srj.ServerOptions{DatasetSize: 2000, MaxT: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		servers[i] = srv
		addrs[i] = ts.URL
	}

	var out bytes.Buffer
	err := run(context.Background(), []string{"-serve", "-remote", strings.Join(addrs, ","),
		"-dataset", "uniform", "-l", "200", "-clients", "4", "-requests", "5", "-reqt", "200"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"engine warmed through the registry",
		"cached-engine throughput",
		"rebuild-per-request baseline",
		"evicted 8 baseline engines",
		"router:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("sharded serve output missing %q:\n%s", want, out.String())
		}
	}
	var builds, entries uint64
	warmHomes := 0
	for i, srv := range servers {
		st := srv.RegistryStats()
		builds += st.Builds
		entries += uint64(st.Entries)
		if st.Entries > 0 {
			warmHomes++
		}
		if !strings.Contains(out.String(), addrs[i]+" registry:") {
			t.Errorf("output missing registry line for %s:\n%s", addrs[i], out.String())
		}
	}
	// One build for the warm key plus one per baseline request,
	// fleet-wide; after the broadcast eviction only the warm key's
	// engine remains, on exactly one shard.
	if builds != 1+4*2 {
		t.Errorf("fleet builds = %d, want 9", builds)
	}
	if entries != 1 || warmHomes != 1 {
		t.Errorf("fleet entries = %d on %d shards, want the warm key on exactly 1", entries, warmHomes)
	}
}

// TestServeModeRemoteRejectsBase: -base means nothing remotely (the
// dataset size is the server's -n), so combining them is an error
// rather than a silently wrong benchmark.
func TestServeModeRemoteRejectsBase(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-serve", "-remote", "http://127.0.0.1:1", "-base", "50000"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-base has no effect") {
		t.Fatalf("err = %v", err)
	}
}

func TestServeModeRemoteUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-serve", "-remote", "http://127.0.0.1:1", "-requests", "1"}, &out); err == nil {
		t.Error("unreachable server should fail")
	}
}

func TestServeModeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-serve", "-clients", "0"}, &out); err == nil {
		t.Error("zero clients should fail")
	}
	if err := run(context.Background(), []string{"-serve", "-dataset", "nope", "-base", "100"}, &out); err == nil {
		t.Error("unknown dataset should fail")
	}
	if err := run(context.Background(), []string{"-serve", "-algo", "nope", "-base", "100"}, &out); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

// TestServeModeMixedRefusesStaticAlgorithm: only BBST datasets accept
// updates, so a mixed read/write bench on a static baseline fails on
// its flags, before any dataset or store is built.
func TestServeModeMixedRefusesStaticAlgorithm(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-serve", "-update-rate", "0.5", "-algo", "kds", "-base", "2000", "-requests", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "kds") {
		t.Fatalf("mixed bench on kds: %v, want a refusal naming the algorithm", err)
	}
	if out.Len() != 0 {
		t.Fatalf("refused bench printed output, so it started building:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-nope"}, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestCSVFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-base", "1500", "-t", "200", "-exp", "table2", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dataset,KDS,BBST") {
		t.Fatalf("csv header missing:\n%s", out.String())
	}
	var bad bytes.Buffer
	if err := run(context.Background(), []string{"-exp", "table2", "-format", "xml"}, &bad); err == nil {
		t.Fatal("unknown format should fail")
	}
}

// TestRunCanceled: a canceled context (the Ctrl-C path) stops the
// run between experiments with ctx.Err, not a partial render.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, []string{"-base", "1500", "-t", "200", "-exp", "table2"}, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := run(ctx, []string{"-serve", "-base", "2000", "-clients", "2", "-requests", "2", "-reqt", "100"}, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("serve mode: err = %v, want context.Canceled", err)
	}
}
