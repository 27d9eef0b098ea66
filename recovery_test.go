package srj_test

// Crash-recovery at the server level: a Server opened over a DataDir
// must come back from close-and-reopen serving exactly the state its
// write-ahead log acknowledged — deletes stay deleted, inserts stay
// present, the update sequence resumes where it stopped — both on the
// pure log-replay path and on the snapshot-plus-tail path a
// background compaction leaves behind.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	srj "repro"
	"repro/srjtest"
)

// openRecoverable starts an in-process server over dir with the given
// resolver, fronted by an httptest server. The returned stop function
// closes the HTTP listener and then the server (syncing the WAL), so
// the directory can be reopened.
func openRecoverable(t *testing.T, dir string, R, S []srj.Point) (*srj.Client, func()) {
	t.Helper()
	srv, err := srj.NewServer(&srj.ServerOptions{
		Datasets: func(name string) ([]srj.Point, []srj.Point, error) {
			return R, S, nil
		},
		MaxT:    200_000,
		DataDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatalf("closing server: %v", err)
		}
	}
	t.Cleanup(stop)
	return srj.NewClientHTTP(ts.URL, confTransport(t)), stop
}

// lastApplied reads the store's last applied update ID for key from
// /v1/stats.
func lastApplied(t *testing.T, cl *srj.Client, key srj.EngineKey) uint64 {
	t.Helper()
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range stats.Stores {
		if info.Key.Dataset == key.Dataset {
			return info.LastAppliedID
		}
	}
	t.Fatalf("no store for %s in stats", key.Dataset)
	return 0
}

func TestServerRecoversFromLogReplay(t *testing.T) {
	R, S, l := srjtest.Data()
	dir := t.TempDir()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 7}
	ctx := context.Background()
	victim := R[2].ID

	cl, stop := openRecoverable(t, dir, R, S)
	bound := cl.Bind(key)
	// Three acknowledged updates, kept far below the snapshot cadence
	// so recovery exercises pure log replay (no snapshot exists yet).
	if _, err := bound.Apply(ctx, srj.Update{
		InsertR: []srj.Point{{ID: 4000, X: 9000, Y: 9000}},
		InsertS: []srj.Point{{ID: 4001, X: 9001, Y: 9001}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Apply(ctx, srj.Update{DeleteR: []int32{victim}}); err != nil {
		t.Fatal(err)
	}
	if _, err := bound.Apply(ctx, srj.Update{InsertS: []srj.Point{{ID: 4002, X: 8999, Y: 9000}}}); err != nil {
		t.Fatal(err)
	}
	if got := lastApplied(t, cl, key); got != 3 {
		t.Fatalf("last applied %d before restart, want 3", got)
	}
	stop()

	// Reopen the same directory: the resolver still hands out the seed
	// data, but the store must resume from the log, not from scratch.
	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != 3 {
		t.Fatalf("last applied %d after restart, want 3", got)
	}
	bound2 := cl2.Bind(key)
	res, err := bound2.Draw(ctx, srj.Request{T: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	sawInsert := false
	for _, p := range res.Pairs {
		if p.R.ID == victim {
			t.Fatalf("deleted point %d resurrected by restart", victim)
		}
		if p.R.ID == 4000 && (p.S.ID == 4001 || p.S.ID == 4002) {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatal("inserted pair lost across restart")
	}
	// The sequence resumes exactly where it stopped.
	if _, err := bound2.Apply(ctx, srj.Update{DeleteS: []int32{4002}}); err != nil {
		t.Fatal(err)
	}
	if got := lastApplied(t, cl2, key); got != 4 {
		t.Fatalf("last applied %d after post-restart update, want 4", got)
	}
}

func TestServerRecoversFromSnapshot(t *testing.T) {
	R, S, l := srjtest.Data()
	dir := t.TempDir()
	key := srj.EngineKey{Dataset: "conf", L: l, Algorithm: "bbst", Seed: 11}
	ctx := context.Background()

	cl, stop := openRecoverable(t, dir, R, S)
	bound := cl.Bind(key)
	// Push the write-ahead records past the snapshot cadence (a quarter
	// of the ~120 live points) so the store snapshots in the
	// background: delete the first 20 R points and insert a far-away
	// cluster.
	var n uint64
	for i := 0; i < 20; i++ {
		if _, err := bound.Apply(ctx, srj.Update{DeleteR: []int32{R[i].ID}}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < 15; i++ {
		if _, err := bound.Apply(ctx, srj.Update{
			InsertR: []srj.Point{{ID: int32(5000 + i), X: 9000, Y: 9000 + float64(i)}},
			InsertS: []srj.Point{{ID: int32(6000 + i), X: 9001, Y: 9000 + float64(i)}},
		}); err != nil {
			t.Fatal(err)
		}
		n++
	}
	// The snapshot runs in the background; wait for the persister to
	// report one.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stats, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		snapped := false
		for _, info := range stats.Stores {
			if info.Key.Dataset == key.Dataset && info.LastSnapshotID > 0 {
				snapped = true
			}
		}
		if snapped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot appeared within 10s of crossing the snapshot cadence")
		}
		time.Sleep(20 * time.Millisecond)
	}
	stop()

	cl2, _ := openRecoverable(t, dir, R, S)
	if got := lastApplied(t, cl2, key); got != n {
		t.Fatalf("last applied %d after snapshot recovery, want %d", got, n)
	}
	bound2 := cl2.Bind(key)
	res, err := bound2.Draw(ctx, srj.Request{T: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	deleted := make(map[int32]bool)
	for i := 0; i < 20; i++ {
		deleted[R[i].ID] = true
	}
	sawInsert := false
	for _, p := range res.Pairs {
		if deleted[p.R.ID] {
			t.Fatalf("deleted point %d resurrected by snapshot recovery", p.R.ID)
		}
		if p.R.ID >= 5000 && p.R.ID < 5015 {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatal("inserted cluster lost across snapshot recovery")
	}
}
