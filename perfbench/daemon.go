package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"instantcheck/internal/farm"
	"instantcheck/internal/fleet"
	"instantcheck/internal/obs"
)

// daemon is checkd booted inside the benchmark process and served on
// loopback, wired the way cmd/checkd wires it at its defaults: run
// workers = GOMAXPROCS, one job worker, and in fleet mode a coordinator at
// the -fleet defaults plus GOMAXPROCS workers at the cmd/checkworker
// defaults.
type daemon struct {
	// client carries the workload's calls; admin the harness's own
	// health checks and scrapes, so they stay out of the client's counts.
	client  *farm.Client
	admin   *farm.Client
	dir     string
	store   *farm.Store
	srv     *farm.Server
	hs      *http.Server
	cancel  context.CancelFunc
	served  chan error
	workers sync.WaitGroup
	// fleetWorkers is the number of fleet workers (0 on a single node).
	fleetWorkers int
}

// storeFile is the store log's name inside a daemon's directory.
const storeFile = "checkfarm.log"

// bootDaemon starts checkd with its store in dir and returns once it
// answers /healthz and, in fleet mode, every worker is live.
func bootDaemon(dir string, fleetMode bool, transport http.RoundTripper) (*daemon, error) {
	store, err := farm.OpenStore(filepath.Join(dir, storeFile))
	if err != nil {
		return nil, err
	}
	opts := farm.Options{RunWorkers: runtime.GOMAXPROCS(0), JobWorkers: 1}
	var coord *fleet.Coordinator
	if fleetMode {
		coord = fleet.NewCoordinator(fleet.CoordinatorOptions{ShardSize: 8, LeaseTTL: 10 * time.Second})
		opts.Dispatcher = coord
	}
	srv := farm.NewServer(store, opts)
	srv.Resume()
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if coord != nil {
		if err := obs.LintMerged(srv.Registry(), coord.Registry()); err != nil {
			store.Close()
			return nil, fmt.Errorf("farm and fleet registries cannot merge: %w", err)
		}
		mux.Handle("POST /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /api/v1/fleet/", coord.Handler())
		mux.Handle("GET /metrics", obs.MergedHandler(srv.Registry(), coord.Registry()))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		client: &farm.Client{BaseURL: url, HTTPClient: &http.Client{Transport: transport}},
		admin:  &farm.Client{BaseURL: url, HTTPClient: &http.Client{Transport: newTransport()}},
		dir:    dir,
		store:  store,
		srv:    srv,
		hs: &http.Server{Handler: mux, ReadTimeout: 30 * time.Second,
			WriteTimeout: 120 * time.Second, IdleTimeout: 2 * time.Minute},
		cancel: cancel,
		served: make(chan error, 1),
	}
	srv.Start(ctx)
	go func() { d.served <- d.hs.Serve(ln) }()
	if fleetMode {
		d.fleetWorkers = runtime.GOMAXPROCS(0)
		for i := 0; i < d.fleetWorkers; i++ {
			w, err := fleet.NewWorker(fleet.WorkerOptions{
				Name:        fmt.Sprintf("w%d", i),
				Coordinator: url,
				CacheDir:    filepath.Join(dir, fmt.Sprintf("cache%d", i)),
			})
			if err != nil {
				d.close()
				return nil, err
			}
			d.workers.Add(1)
			go func() {
				defer d.workers.Done()
				w.Run(ctx) // returns ctx's error once close cancels it
			}()
		}
	}
	if err := d.waitReady(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// waitReady polls /healthz, and in fleet mode the live-worker gauge, until
// both answer.
func (d *daemon) waitReady() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		ready := false
		if h, err := d.admin.Health(ctx); err == nil && h.Status == "ok" {
			ready = d.fleetWorkers == 0
			if !ready {
				m, err := d.scrape(ctx)
				ready = err == nil && m.sum("checkfleet_workers_live") >= float64(d.fleetWorkers)
			}
		}
		if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return errors.New("checkd did not become ready within 30s")
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// close stops the fleet workers, the HTTP server and the job workers, then
// closes and deletes the store; it returns once every goroutine it started
// has ended.
func (d *daemon) close() error {
	d.cancel()
	// Close, not Shutdown: a worker canceled between dialing and sending its
	// request leaves a new connection that Shutdown waits 5 s for.
	err := d.hs.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.workers.Wait()
	d.srv.Wait()
	for _, c := range []*farm.Client{d.client, d.admin} {
		if t, ok := c.HTTPClient.Transport.(interface{ CloseIdleConnections() }); ok {
			t.CloseIdleConnections()
		}
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// samples is one parsed /metrics scrape.
type samples []obs.Sample

// scrape fetches and parses /metrics.
func (d *daemon) scrape(ctx context.Context) (samples, error) {
	text, err := d.admin.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	parsed, err := obs.ParseExposition(strings.NewReader(text))
	return samples(parsed), err
}

// sum adds every sample of the named series.
func (s samples) sum(name string) float64 {
	total := 0.0
	for _, x := range s {
		if x.Name == name {
			total += x.Value
		}
	}
	return total
}

// byLabel sums the named series per value of one label.
func (s samples) byLabel(name, label string) map[string]float64 {
	out := make(map[string]float64)
	for _, x := range s {
		if x.Name == name {
			out[x.Labels[label]] += x.Value
		}
	}
	return out
}
