package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"

	"repro"
)

const (
	shards      = 3
	datasetName = "nyc"
	fsyncPolicy = "always"
	routerHost  = "router"
)

// shardURL is a shard's stable name. The router's consistent-hash ring
// hashes backend address strings, so naming shards by ephemeral
// loopback ports would move the key's home shard from run to run; the
// benchmark's own dialer maps these names onto the listeners.
func shardURL(i int) string { return fmt.Sprintf("http://shard-%d", i) }

// fleet is an in-process serving fleet: three srj.Servers and an
// srj.Router proxy, each on its own loopback listener, and one
// srj.Client bound to the workload key through the router.
type fleet struct {
	servers []*srj.Server
	router  *srj.Router
	client  *srj.Client // bound to key, via the router
	admin   []*srj.Client
	dirs    []string // per-shard DataDir, when durable

	mu      sync.Mutex
	addrs   map[string]string // "shard-0:80" etc. -> loopback address
	https   []*http.Server
	serveWG sync.WaitGroup
	trs     []*http.Transport
}

type fleetConfig struct {
	R, S    []srj.Point
	key     srj.EngineKey
	dataDir string // "" = in-memory shards
	trace   *tracer
}

// startFleet starts the fleet and returns once every listener accepts.
func startFleet(cfg fleetConfig) (*fleet, error) {
	f := &fleet{addrs: map[string]string{}}
	datasets := func(name string) ([]srj.Point, []srj.Point, error) {
		if name != datasetName {
			return nil, nil, fmt.Errorf("unknown dataset %q", name)
		}
		return cfg.R, cfg.S, nil
	}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	var backends []string
	for i := 0; i < shards; i++ {
		opts := &srj.ServerOptions{Datasets: datasets}
		if cfg.dataDir != "" {
			opts.DataDir = filepath.Join(cfg.dataDir, fmt.Sprintf("shard-%d", i))
			opts.FsyncPolicy = fsyncPolicy
			f.dirs = append(f.dirs, opts.DataDir)
		}
		srv, err := srj.NewServer(opts)
		if err != nil {
			return fail(err)
		}
		f.servers = append(f.servers, srv)
		var h http.Handler = srv
		if cfg.trace != nil {
			h = cfg.trace.handler(spanServerSample, spanServerUpdate, h)
		}
		if err := f.listen(fmt.Sprintf("shard-%d:80", i), h); err != nil {
			return fail(err)
		}
		backends = append(backends, shardURL(i))
	}
	rt, err := srj.NewRouter(backends, srj.RouterOptions{
		HTTPClient: &http.Client{Transport: f.transport(cfg.trace, spanUpstreamSample, spanUpstreamUpdate)},
	})
	if err != nil {
		return fail(err)
	}
	f.router = rt
	var rh http.Handler = rt.Handler()
	if cfg.trace != nil {
		rh = cfg.trace.handler(spanRouterSample, spanRouterUpdate, rh)
	}
	if err := f.listen(routerHost+":80", rh); err != nil {
		return fail(err)
	}
	hc := &http.Client{Transport: f.transport(cfg.trace, spanClientRT, spanClientRTUpdate)}
	f.client = srj.NewClientHTTP("http://"+routerHost, hc).Bind(cfg.key)
	for i := 0; i < shards; i++ {
		f.admin = append(f.admin, srj.NewClientHTTP(shardURL(i), &http.Client{Transport: f.transport(nil, "", "")}))
	}
	return f, nil
}

// listen serves h on a fresh loopback listener known to the dialer as
// host.
func (f *fleet) listen(host string, h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.addrs[host] = ln.Addr().String()
	f.mu.Unlock()
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serveWG.Add(1)
	go func() {
		defer f.serveWG.Done()
		hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return nil
}

// transport returns an HTTP transport that dials the fleet's stable
// names, wrapped with spans when tracing.
func (f *fleet) transport(t *tracer, sampleSpan, updateSpan string) http.RoundTripper {
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			f.mu.Lock()
			real, ok := f.addrs[addr]
			f.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("srjperf: no fleet member %q", addr)
			}
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}
	f.trs = append(f.trs, tr)
	if t == nil {
		return tr
	}
	return &transport{t: t, base: tr, sample: sampleSpan, upd: updateSpan}
}

// stats fetches every shard's /v1/stats.
func (f *fleet) stats(ctx context.Context) ([]srj.ServerStats, error) {
	out := make([]srj.ServerStats, len(f.admin))
	for i, c := range f.admin {
		st, err := c.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("stats of shard %d: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

// walBytes sums the bytes in every shard's DataDir.
func (f *fleet) walBytes() (int64, error) {
	var total int64
	for _, d := range f.dirs {
		n, err := dirBytes(d)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// close stops the router, the listeners (waiting for every Serve
// goroutine to return), and the servers' write-ahead logs.
func (f *fleet) close() error {
	if f.router != nil {
		f.router.Close()
	}
	for _, hs := range f.https {
		hs.Close()
	}
	f.serveWG.Wait()
	for _, tr := range f.trs {
		tr.CloseIdleConnections()
	}
	var errs []error
	for _, s := range f.servers {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}
