// Command exserve exercises the concurrent query engine: it opens one or
// more dataset profiles (optionally sharding each into an N-way
// ShardedSource), submits many simultaneous distinct-object queries
// (spread round-robin over the sources' classes), multiplexes their
// detector calls onto a shared bounded worker pool — grouped by shard and
// dispatched as one DetectBatch per group — and prints per-query,
// per-shard, backend, router and cache statistics.
//
// Usage:
//
//	exserve -datasets dashcam,bdd1k -queries 8 -limit 10
//	        [-workers 4] [-round 4] [-adaptive] [-scale 0.05] [-seed 1]
//	        [-budget 0] [-shards 1] [-cache 0]
//	        [-cache-remote URL]
//	        [-backend sim|http] [-endpoint URL] [-replicas 1]
//	        [-replica-weight W1,W2,...] [-scatter]
//	        [-churn 0] [-admin addr]
//
// -shards N composes each profile from N independently generated shards
// (one logical repository, N machines' worth of chunks); -cache N enables
// an N-entry detector memo cache shared by every query on the engine.
//
// -cache-remote URL attaches a shared remote result tier (a
// cachestore/httpcache server) behind the memo cache: detector results are
// looked up L1-then-L2 and written through, so a fleet of exserve
// processes pointed at one server shares every frame any of them paid
// for. With a remote tier the run ends with a per-tier table:
// hits/misses per tier, round trips, EWMA round-trip latency and the
// singleflight merge/fill counters.
//
// -adaptive turns on feedback-controlled round sizing: each query's
// per-round detector quota grows from -round toward the backend's MaxBatch
// while observed batch latency stays flat and shrinks when latency
// inflates or a replica's circuit breaker opens. The run then prints an
// adaptive table: peak/final quotas per query and the grow/shrink
// counters.
//
// -budget N replaces fair-share scheduling with one engine-level budget of
// N frames per round, divided across the queries by marginal value (each
// query's expected new results per frame under its Thompson beliefs),
// and every query is guaranteed at least one frame per round so nothing
// starves. -round (or the adaptive controller's live quota) becomes each
// query's per-round cap. The run then prints a budget table: frames
// granted vs the fair-share request per query, and the engine-level grant
// ratio — how hard the budget squeezed the fleet.
//
// -backend http runs every detector call over the backend/httpbatch wire
// protocol. With no -endpoint, each shard gets its own loopback HTTP
// server fed by a twin dataset — a self-contained demo of a per-shard
// remote GPU fleet; with -endpoint URL, all shards call that one external
// service (which must serve the same profiles' classes). Either way the
// run prints a backend table: batches, frames, realized batch size,
// retries and server-reported inference seconds per shard.
//
// -replicas R (http backend, loopback mode) fronts every shard with a
// backend/router health-checked router over R equivalent loopback
// replicas: a replica dying mid-run sheds load to its siblings instead of
// failing queries, and the run ends with a per-replica health/failover
// table (state, traffic, weight, slices, EWMA latency, last error).
// -replica-weight W1,...,WR declares the replicas' relative capacities
// (one weight per replica; unweighted fleets derive capacity from observed
// per-frame latency), and -scatter turns on scatter-gather: each batch is
// split across the healthy replicas proportional to capacity and
// reassembled in order, so a round costs one slice-time instead of one
// whole-batch-time — the heterogeneous-fleet throughput path.
//
// Fleet churn: with -shards > 1, a SIGHUP (or -churn D after delay D, or
// POST /admin/churn when -admin is set) runs a live add/drain cycle on
// every sharded source — a fresh shard is attached and the oldest active
// shard drained while the queries keep running; the shard table shows the
// resulting statuses. -admin ADDR serves GET /healthz plus POST
// /admin/add, /admin/drain and /admin/churn for manual control.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/backend/router"
	"github.com/exsample/exsample/cachestore/httpcache"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.datasets, "datasets", "dashcam,bdd1k", "comma-separated profile names")
	flag.IntVar(&cfg.queries, "queries", 8, "number of concurrent queries")
	flag.IntVar(&cfg.limit, "limit", 10, "distinct objects per query")
	flag.IntVar(&cfg.workers, "workers", 4, "shared detector worker pool size")
	flag.IntVar(&cfg.round, "round", 4, "frames per query per scheduling round")
	flag.Float64Var(&cfg.scale, "scale", 0.05, "dataset scale (1 = paper size)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "base random seed")
	flag.IntVar(&cfg.shards, "shards", 1, "shards per profile (>1 composes a ShardedSource)")
	flag.IntVar(&cfg.cache, "cache", 0, "detector memo cache entries (0 = disabled)")
	flag.StringVar(&cfg.cacheRemote, "cache-remote", "", "shared remote result tier endpoint URL (a cachestore/httpcache server)")
	flag.BoolVar(&cfg.adaptive, "adaptive", false, "adaptive round sizing: grow each query's per-round quota toward the backend's MaxBatch while latency stays flat")
	flag.IntVar(&cfg.budget, "budget", 0, "engine-level frames-per-round budget divided across queries by marginal value (0 = fair-share)")
	flag.StringVar(&cfg.backend, "backend", "sim", "detector backend: sim (in-process) or http (httpbatch wire protocol)")
	flag.StringVar(&cfg.endpoint, "endpoint", "", "external httpbatch endpoint URL (http backend only; empty = per-shard loopback servers)")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replica endpoints per shard behind a health-checked router (http loopback mode)")
	flag.StringVar(&cfg.replicaWeight, "replica-weight", "", "comma-separated relative capacity weights, one per replica (requires -replicas > 1; empty = derive from observed latency)")
	flag.BoolVar(&cfg.scatter, "scatter", false, "scatter-gather: split each batch across healthy replicas proportional to capacity (requires -replicas > 1)")
	flag.DurationVar(&cfg.churn, "churn", 0, "run one add/drain churn cycle this long after the queries start (0 = off; requires -shards > 1)")
	flag.StringVar(&cfg.admin, "admin", "", "serve /healthz and /admin/{add,drain,churn} on this address (e.g. 127.0.0.1:8080)")
	flag.Parse()
	cfg.profiles = strings.Split(cfg.datasets, ",")

	// SIGHUP triggers the same live add/drain cycle as -churn/-admin.
	sighup := make(chan os.Signal, 1)
	signal.Notify(sighup, syscall.SIGHUP)
	cfg.churnSignal = sighup

	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "exserve:", err)
		os.Exit(1)
	}
}

// config collects the run parameters.
type config struct {
	datasets string
	profiles []string
	queries  int
	limit    int
	workers  int
	round    int
	scale    float64
	seed     uint64
	shards   int
	cache    int
	// cacheRemote is the shared result tier's endpoint.
	cacheRemote string
	adaptive    bool
	budget      int
	backend     string
	endpoint    string
	replicas    int
	// Heterogeneous-fleet knobs: the raw -replica-weight flag, its parsed
	// form (set during validation) and the scatter-gather toggle.
	replicaWeight string
	weights       []float64
	scatter       bool
	churn         time.Duration
	admin         string
	// churnSignal, when non-nil, triggers an add/drain cycle per receive
	// (wired to SIGHUP by main; tests poke it directly).
	churnSignal <-chan os.Signal
	// after starts the -churn delay (nil = time.After; tests fire it
	// directly).
	after func(time.Duration) <-chan time.Time
}

// backendStat tracks one httpbatch client for the stats table: a
// per-shard (and, with -replicas, per-replica) loopback client, or
// (shard -1, profile "(all)") the one shared client of an external
// endpoint.
type backendStat struct {
	profile string
	shard   int
	replica int
	client  *httpbatch.Client
}

// routerStat tracks one shard's replica router for the health table.
type routerStat struct {
	profile string
	shard   int
	router  *router.Router
}

// syncWriter serializes writes from the churn goroutines and the table
// renderer onto one underlying writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// engineOptions builds the engine configuration from the flags, dialing
// the remote result tier when -cache-remote is set.
func engineOptions(cfg config) (exsample.EngineOptions, error) {
	opts := exsample.EngineOptions{
		Workers:        cfg.workers,
		FramesPerRound: cfg.round,
		CacheEntries:   cfg.cache,
		AdaptiveRounds: cfg.adaptive,
		GlobalBudget:   cfg.budget,
	}
	if cfg.cacheRemote != "" {
		client, err := httpcache.New(httpcache.Config{Endpoint: cfg.cacheRemote})
		if err != nil {
			return exsample.EngineOptions{}, fmt.Errorf("cache-remote: %w", err)
		}
		opts.RemoteCache = client
	}
	return opts, nil
}

// printTierTable renders the shared-result-tier stats when -cache-remote
// is active: per-tier hit/miss counts, remote round trips with their EWMA
// latency, and the singleflight merge/fill counters.
func printTierTable(w io.Writer, eng *exsample.Engine, cfg config) {
	if cfg.cacheRemote == "" {
		return
	}
	ts := eng.TierStats()
	fmt.Fprintf(w, "\nshared result tier (%s):\n", cfg.cacheRemote)
	fmt.Fprintf(w, "%-5s %10s %10s %12s %9s\n", "tier", "hits", "misses", "round-trips", "rtt-ms")
	fmt.Fprintf(w, "%-5s %10d %10d %12s %9s\n", "L1", ts.L1Hits, ts.L1Misses, "-", "-")
	fmt.Fprintf(w, "%-5s %10d %10d %12d %9.2f\n", "L2", ts.L2Hits, ts.L2Misses, ts.L2RoundTrips, ts.L2RTTSeconds*1e3)
	fmt.Fprintf(w, "singleflight: %d merged, %d filled; L2 outages: %d read, %d write\n",
		ts.Merges, ts.Fills, ts.L2Errors, ts.L2PutErrors)
}

// serveBackend starts a loopback HTTP server for a dataset's backend — the
// in-process stand-in for a remote GPU service — and returns the endpoint
// URL plus a shutdown func.
func serveBackend(ds *exsample.Dataset) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: httpbatch.Handler(ds.Backend())}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// fleetState is everything the run accumulates while opening sources —
// the stats tables, the shutdown hooks and the handles churn needs.
type fleetState struct {
	mu       sync.Mutex
	backends []backendStat
	routers  []routerStat
	stops    []func()
	sharded  []*exsample.ShardedSource
	// shared is the one external-endpoint client (nil without -endpoint).
	shared *httpbatch.Client
	// shardSeq hands out seeds for churn-attached shards.
	shardSeq map[string]uint64
}

func (f *fleetState) addStop(stop func()) {
	if stop != nil {
		f.mu.Lock()
		f.stops = append(f.stops, stop)
		f.mu.Unlock()
	}
}

// openShard opens one shard's dataset, wiring the configured backend: the
// in-process simulator, the shared external-endpoint client, a loopback
// server fed by a twin dataset, or — with -replicas R > 1 — a
// health-checked router over R loopback replicas.
func (f *fleetState) openShard(name string, shardIdx int, seed uint64, cfg config) (*exsample.Dataset, error) {
	if cfg.backend != "http" {
		return exsample.OpenProfile(name, cfg.scale, seed)
	}
	if f.shared != nil {
		return exsample.OpenProfile(name, cfg.scale, seed, exsample.WithBackend(f.shared))
	}
	specs := make([]router.ReplicaSpec, cfg.replicas)
	for r := 0; r < cfg.replicas; r++ {
		twin, err := exsample.OpenProfile(name, cfg.scale, seed)
		if err != nil {
			return nil, err
		}
		endpoint, stop, err := serveBackend(twin)
		if err != nil {
			return nil, err
		}
		f.addStop(stop)
		client, err := httpbatch.New(httpbatch.Config{Endpoint: endpoint, MaxBatch: 64})
		if err != nil {
			return nil, err
		}
		specs[r] = router.ReplicaSpec{Backend: client, Name: fmt.Sprintf("%s/s%d/r%d", name, shardIdx, r)}
		if len(cfg.weights) > 0 {
			specs[r].Weight = cfg.weights[r]
		}
		f.mu.Lock()
		f.backends = append(f.backends, backendStat{profile: name, shard: shardIdx, replica: r, client: client})
		f.mu.Unlock()
	}
	if cfg.replicas == 1 {
		// Single endpoint: no router in the path, exactly the PR 3 shape.
		return exsample.OpenProfile(name, cfg.scale, seed, exsample.WithBackend(specs[0].Backend))
	}
	rt, err := router.New(router.Config{Specs: specs, Scatter: cfg.scatter})
	if err != nil {
		return nil, err
	}
	f.addStop(rt.Close)
	f.mu.Lock()
	f.routers = append(f.routers, routerStat{profile: name, shard: shardIdx, router: rt})
	f.mu.Unlock()
	return exsample.OpenProfile(name, cfg.scale, seed, exsample.WithBackend(rt))
}

// openSource opens one profile as a plain dataset or an N-way sharded
// composition of independently generated datasets, each shard routed to
// its own backend fleet (or all to the shared external client).
func (f *fleetState) openSource(name string, cfg config) (exsample.Source, error) {
	if cfg.shards <= 1 {
		return f.openShard(name, 0, cfg.seed, cfg)
	}
	shards := make([]*exsample.Dataset, cfg.shards)
	for i := range shards {
		ds, err := f.openShard(name, i, cfg.seed+uint64(i)*1000, cfg)
		if err != nil {
			return nil, err
		}
		shards[i] = ds
	}
	ss, err := exsample.NewShardedSource(name, shards...)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.sharded = append(f.sharded, ss)
	f.shardSeq[name] = cfg.seed + uint64(cfg.shards)*1000
	f.mu.Unlock()
	return ss, nil
}

// churnCycle runs one live add/drain cycle on a sharded source: attach a
// freshly generated shard, then drain the lowest-indexed active shard.
// Running queries re-route at their next round; nothing restarts.
func (f *fleetState) churnCycle(w io.Writer, ss *exsample.ShardedSource, cfg config) error {
	f.mu.Lock()
	seed := f.shardSeq[ss.Name()]
	f.shardSeq[ss.Name()] = seed + 1000
	f.mu.Unlock()
	ds, err := f.openShard(ss.Name(), ss.NumShards(), seed, cfg)
	if err != nil {
		return fmt.Errorf("churn %s: open shard: %w", ss.Name(), err)
	}
	added, err := ss.AddShard(ds)
	if err != nil {
		return fmt.Errorf("churn %s: attach: %w", ss.Name(), err)
	}
	drained := -1
	for _, st := range ss.ShardStats() {
		if st.Status == "active" && st.Shard != added {
			drained = st.Shard
			break
		}
	}
	if drained < 0 {
		fmt.Fprintf(w, "churn: %s attached shard %d, no other active shard to drain\n", ss.Name(), added)
		return nil
	}
	if err := ss.DrainShard(drained); err != nil {
		return fmt.Errorf("churn %s: drain: %w", ss.Name(), err)
	}
	fmt.Fprintf(w, "churn: %s attached shard %d, draining shard %d\n", ss.Name(), added, drained)
	return nil
}

// onTrigger calls cycle once per receive from fire until done or fire
// closes. A receive already pending when done closes still runs, so a
// trigger that fired before shutdown is never lost to it.
func onTrigger[T any](fire <-chan T, done <-chan struct{}, cycle func()) {
	for {
		select {
		case _, ok := <-fire:
			if !ok {
				return
			}
			cycle()
		case <-done:
			select {
			case _, ok := <-fire:
				if ok {
					cycle()
				}
			default:
			}
			return
		}
	}
}

// churnAll runs one cycle on every sharded source.
func (f *fleetState) churnAll(w io.Writer, cfg config) {
	for _, ss := range f.sharded {
		if err := f.churnCycle(w, ss, cfg); err != nil {
			fmt.Fprintln(w, "churn:", err)
		}
	}
}

// adminHandler serves the ops surface: GET /healthz (shard + router
// health JSON) and POST /admin/{add,drain,churn}.
func (f *fleetState) adminHandler(w io.Writer, cfg config) http.Handler {
	mux := http.NewServeMux()
	source := func(r *http.Request) *exsample.ShardedSource {
		name := r.URL.Query().Get("source")
		for _, ss := range f.sharded {
			if ss.Name() == name {
				return ss
			}
		}
		return nil
	}
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		type shardHealth struct {
			Shard   int    `json:"shard"`
			Status  string `json:"status"`
			Frames  int64  `json:"frames"`
			Detects int64  `json:"detects"`
		}
		type sourceHealth struct {
			Name       string        `json:"name"`
			Generation uint64        `json:"generation"`
			Shards     []shardHealth `json:"shards"`
		}
		type replicaHealth struct {
			Name     string  `json:"name"`
			State    string  `json:"state"`
			Requests int64   `json:"requests"`
			Failures int64   `json:"failures"`
			Weight   float64 `json:"weight,omitempty"`
			Slices   int64   `json:"slices,omitempty"`
			EWMAms   float64 `json:"ewma_ms"`
			LastErr  string  `json:"last_error,omitempty"`
		}
		type routerHealth struct {
			Profile   string          `json:"profile"`
			Shard     int             `json:"shard"`
			Failovers int64           `json:"failovers"`
			Scatters  int64           `json:"scatters,omitempty"`
			Replicas  []replicaHealth `json:"replicas"`
		}
		var payload struct {
			Sources []sourceHealth `json:"sources"`
			Routers []routerHealth `json:"routers"`
		}
		// Snapshot under the lock: churn and /admin/add append to these
		// slices concurrently with health requests.
		f.mu.Lock()
		sharded := append([]*exsample.ShardedSource{}, f.sharded...)
		routers := append([]routerStat{}, f.routers...)
		f.mu.Unlock()
		for _, ss := range sharded {
			sh := sourceHealth{Name: ss.Name(), Generation: ss.Generation()}
			for _, st := range ss.ShardStats() {
				sh.Shards = append(sh.Shards, shardHealth{st.Shard, st.Status, st.NumFrames, st.DetectCalls})
			}
			payload.Sources = append(payload.Sources, sh)
		}
		for _, rs := range routers {
			rh := routerHealth{Profile: rs.profile, Shard: rs.shard,
				Failovers: rs.router.Failovers(), Scatters: rs.router.Scatters()}
			for _, st := range rs.router.Stats() {
				rh.Replicas = append(rh.Replicas, replicaHealth{
					Name: st.Name, State: st.State.String(), Requests: st.Requests,
					Failures: st.Failures, Weight: st.Weight, Slices: st.Slices,
					EWMAms: st.EWMALatencySeconds * 1e3, LastErr: st.LastErr,
				})
			}
			payload.Routers = append(payload.Routers, rh)
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(payload)
	})
	mux.HandleFunc("POST /admin/add", func(rw http.ResponseWriter, r *http.Request) {
		ss := source(r)
		if ss == nil {
			http.Error(rw, "unknown or unsharded source", http.StatusNotFound)
			return
		}
		f.mu.Lock()
		seed := f.shardSeq[ss.Name()]
		f.shardSeq[ss.Name()] = seed + 1000
		f.mu.Unlock()
		ds, err := f.openShard(ss.Name(), ss.NumShards(), seed, cfg)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
		slot, err := ss.AddShard(ds)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(rw, "{\"shard\":%d}\n", slot)
	})
	mux.HandleFunc("POST /admin/drain", func(rw http.ResponseWriter, r *http.Request) {
		ss := source(r)
		if ss == nil {
			http.Error(rw, "unknown or unsharded source", http.StatusNotFound)
			return
		}
		var shard int
		if _, err := fmt.Sscanf(r.URL.Query().Get("shard"), "%d", &shard); err != nil {
			http.Error(rw, "shard query parameter required", http.StatusBadRequest)
			return
		}
		if err := ss.DrainShard(shard); err != nil {
			http.Error(rw, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprintf(rw, "{\"drained\":%d}\n", shard)
	})
	mux.HandleFunc("POST /admin/churn", func(rw http.ResponseWriter, r *http.Request) {
		if ss := source(r); ss != nil {
			if err := f.churnCycle(w, ss, cfg); err != nil {
				http.Error(rw, err.Error(), http.StatusInternalServerError)
				return
			}
		} else {
			f.churnAll(w, cfg)
		}
		fmt.Fprint(rw, "{\"ok\":true}\n")
	})
	return mux
}

// run opens the sources, fans the queries out over the engine, reacts to
// churn triggers and renders the throughput, shard, backend, router and
// cache tables.
func run(w io.Writer, cfg config) error {
	if cfg.queries < 1 {
		return fmt.Errorf("need at least one query, got %d", cfg.queries)
	}
	if cfg.limit < 1 {
		return fmt.Errorf("need a positive per-query limit, got %d", cfg.limit)
	}
	if cfg.shards < 1 {
		return fmt.Errorf("need at least one shard per profile, got %d", cfg.shards)
	}
	if cfg.backend == "" {
		cfg.backend = "sim"
	}
	if cfg.backend != "sim" && cfg.backend != "http" {
		return fmt.Errorf("unknown backend %q (want sim or http)", cfg.backend)
	}
	if cfg.endpoint != "" && cfg.backend != "http" {
		return fmt.Errorf("-endpoint requires -backend http")
	}
	if cfg.replicas < 1 {
		return fmt.Errorf("need at least one replica per shard, got %d", cfg.replicas)
	}
	if cfg.replicas > 1 && (cfg.backend != "http" || cfg.endpoint != "") {
		return fmt.Errorf("-replicas requires -backend http without -endpoint (the router fronts loopback replicas)")
	}
	if cfg.scatter && cfg.replicas <= 1 {
		return fmt.Errorf("-scatter requires -replicas > 1")
	}
	if cfg.replicaWeight != "" {
		if cfg.replicas <= 1 {
			return fmt.Errorf("-replica-weight requires -replicas > 1")
		}
		parts := strings.Split(cfg.replicaWeight, ",")
		if len(parts) != cfg.replicas {
			return fmt.Errorf("-replica-weight lists %d weights, want one per replica (%d)", len(parts), cfg.replicas)
		}
		cfg.weights = make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("-replica-weight %q: weights must be positive numbers", p)
			}
			cfg.weights[i] = v
		}
	}
	if cfg.churn > 0 && cfg.shards <= 1 {
		return fmt.Errorf("-churn requires -shards > 1")
	}
	// Churn messages print from timer/signal goroutines while the main
	// goroutine renders tables; serialize the writer.
	w = &syncWriter{w: w}

	f := &fleetState{shardSeq: make(map[string]uint64)}
	defer func() {
		f.mu.Lock()
		stops := append([]func(){}, f.stops...)
		f.mu.Unlock()
		for _, stop := range stops {
			stop()
		}
	}()
	type target struct {
		src   exsample.Source
		class string
	}
	var targets []target
	if cfg.backend == "http" && cfg.endpoint != "" {
		shared, err := httpbatch.New(httpbatch.Config{Endpoint: cfg.endpoint, MaxBatch: 64})
		if err != nil {
			return err
		}
		f.shared = shared
		f.backends = append(f.backends, backendStat{profile: "(all)", shard: -1, client: shared})
	}
	for _, name := range cfg.profiles {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		src, err := f.openSource(name, cfg)
		if err != nil {
			return err
		}
		for _, class := range src.Classes() {
			targets = append(targets, target{src: src, class: class})
		}
	}
	if len(targets) == 0 {
		return fmt.Errorf("no datasets given")
	}

	if cfg.admin != "" {
		ln, err := net.Listen("tcp", cfg.admin)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		srv := &http.Server{Handler: f.adminHandler(w, cfg)}
		go srv.Serve(ln)
		f.addStop(func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		fmt.Fprintf(w, "admin: listening on http://%s\n", ln.Addr())
	}

	engOpts, err := engineOptions(cfg)
	if err != nil {
		return err
	}
	eng, err := exsample.NewEngine(engOpts)
	if err != nil {
		return err
	}
	defer eng.Close()

	// Churn triggers: a delay (-churn) and the signal channel (SIGHUP),
	// live until every query finishes. Both are joined before the tables
	// render, so the shard table shows every cycle and no cycle writes to
	// w (or registers shutdown hooks) after the cleanup snapshot is taken.
	churnDone := make(chan struct{})
	var churnWG sync.WaitGroup
	stopChurn := sync.OnceFunc(func() {
		close(churnDone)
		churnWG.Wait()
	})
	defer stopChurn()
	churn := func() { f.churnAll(w, cfg) }
	if cfg.churn > 0 && len(f.sharded) > 0 {
		after := cfg.after
		if after == nil {
			after = time.After
		}
		fire := after(cfg.churn)
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			onTrigger(fire, churnDone, churn)
		}()
	}
	if cfg.churnSignal != nil {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			onTrigger(cfg.churnSignal, churnDone, churn)
		}()
	}

	start := time.Now()
	handles := make([]*exsample.QueryHandle, cfg.queries)
	specs := make([]target, cfg.queries)
	for i := 0; i < cfg.queries; i++ {
		specs[i] = targets[i%len(targets)]
		handles[i], err = eng.Submit(context.Background(), specs[i].src,
			exsample.Query{Class: specs[i].class, Limit: cfg.limit},
			exsample.Options{Seed: cfg.seed + uint64(i)})
		if err != nil {
			return err
		}
	}

	// Wait for every query concurrently so each row's throughput reflects
	// the query's own finish time, not the Wait loop's position.
	type outcome struct {
		rep     *exsample.Report
		err     error
		elapsed time.Duration
	}
	outcomes := make([]outcome, cfg.queries)
	var wg sync.WaitGroup
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *exsample.QueryHandle) {
			defer wg.Done()
			rep, err := h.Wait()
			outcomes[i] = outcome{rep: rep, err: err, elapsed: time.Since(start)}
		}(i, h)
	}
	wg.Wait()
	stopChurn()

	fmt.Fprintf(w, "engine: %d queries, %d workers, %d frames/round, %d shard(s)/profile, %d replica(s)/shard, %s backend\n\n",
		cfg.queries, cfg.workers, cfg.round, cfg.shards, cfg.replicas, cfg.backend)
	fmt.Fprintf(w, "%-3s %-12s %-14s %8s %8s %8s %10s %10s\n",
		"#", "dataset", "class", "found", "frames", "hits", "charged-s", "frames/s")
	var totalFrames int64
	for i, o := range outcomes {
		if o.err != nil {
			return fmt.Errorf("query %d (%s/%s): %w", i, specs[i].src.Name(), specs[i].class, o.err)
		}
		totalFrames += o.rep.FramesProcessed
		perSec := 0.0
		if secs := o.elapsed.Seconds(); secs > 0 {
			perSec = float64(o.rep.FramesProcessed) / secs
		}
		fmt.Fprintf(w, "%-3d %-12s %-14s %8d %8d %8d %10.1f %10.1f\n",
			i, specs[i].src.Name(), specs[i].class, len(o.rep.Results),
			o.rep.FramesProcessed, o.rep.CacheHits, o.rep.TotalSeconds(), perSec)
	}
	wall := time.Since(start)
	st := eng.Stats()
	fmt.Fprintf(w, "\ntotal: %d detector frames in %v wall (%.0f frames/s aggregate); %d rounds, %d detect batches\n",
		totalFrames, wall.Round(time.Millisecond), float64(totalFrames)/wall.Seconds(),
		st.Rounds, st.Batches)
	if cfg.adaptive {
		avgBatch := 0.0
		if st.Batches > 0 {
			avgBatch = float64(st.DetectCalls) / float64(st.Batches)
		}
		fmt.Fprintf(w, "\nadaptive rounds: base quota %d, peak %d, avg batch %.1f; %d grows / %d shrinks (%d capacity losses)\n",
			cfg.round, st.PeakQuota, avgBatch, st.QuotaGrows, st.QuotaShrinks, st.CapacityLosses)
		fmt.Fprintf(w, "%-3s %-12s %-14s %8s\n", "#", "dataset", "class", "quota")
		for i, h := range handles {
			fmt.Fprintf(w, "%-3d %-12s %-14s %8d\n", i, specs[i].src.Name(), specs[i].class, h.RoundQuota())
		}
	}
	if cfg.budget > 0 {
		ratio := 0.0
		if st.BudgetRequested > 0 {
			ratio = float64(st.BudgetGranted) / float64(st.BudgetRequested)
		}
		fmt.Fprintf(w, "\nglobal budget: %d frames/round, floor 1; granted %d of %d requested (%.1f%%)\n",
			cfg.budget, st.BudgetGranted, st.BudgetRequested, ratio*100)
		fmt.Fprintf(w, "%-3s %-12s %-14s %10s %10s %7s\n",
			"#", "dataset", "class", "granted", "requested", "share%")
		for i, h := range handles {
			g, r := h.BudgetCounters()
			share := 0.0
			if st.BudgetGranted > 0 {
				share = float64(g) / float64(st.BudgetGranted) * 100
			}
			fmt.Fprintf(w, "%-3d %-12s %-14s %10d %10d %7.1f\n",
				i, specs[i].src.Name(), specs[i].class, g, r, share)
		}
	}

	// Snapshot the stats lists under the lock: the admin server stays live
	// (and can attach shards) until run returns.
	f.mu.Lock()
	sharded := append([]*exsample.ShardedSource{}, f.sharded...)
	backends := append([]backendStat{}, f.backends...)
	routers := append([]routerStat{}, f.routers...)
	f.mu.Unlock()
	for _, ss := range sharded {
		fmt.Fprintf(w, "\nshards of %s (generation %d):\n", ss.Name(), ss.Generation())
		fmt.Fprintf(w, "%-3s %-9s %8s %10s\n", "#", "status", "frames", "detects")
		for _, sst := range ss.ShardStats() {
			fmt.Fprintf(w, "%-3d %-9s %8d %10d\n", sst.Shard, sst.Status, sst.NumFrames, sst.DetectCalls)
		}
	}
	if len(backends) > 0 {
		fmt.Fprintf(w, "\nbackend (httpbatch):\n")
		fmt.Fprintf(w, "%-12s %-5s %-7s %8s %8s %9s %8s %10s\n",
			"dataset", "shard", "replica", "batches", "frames", "avg-batch", "retries", "server-s")
		for _, b := range backends {
			cs := b.client.Stats()
			avg := 0.0
			if cs.Batches > 0 {
				avg = float64(cs.Frames) / float64(cs.Batches)
			}
			shard := fmt.Sprintf("%d", b.shard)
			if b.shard < 0 {
				shard = "all" // shared external endpoint
			}
			fmt.Fprintf(w, "%-12s %-5s %-7d %8d %8d %9.1f %8d %10.2f\n",
				b.profile, shard, b.replica, cs.Batches, cs.Frames, avg, cs.Retries, cs.ServerSeconds)
		}
	}
	if len(routers) > 0 {
		fmt.Fprintf(w, "\nrouter health/failover:\n")
		fmt.Fprintf(w, "%-20s %-9s %6s %8s %8s %8s %8s %9s %8s %9s  %s\n",
			"replica", "state", "weight", "requests", "success", "failures", "slices", "failover", "scatter", "ewma-ms", "last-error")
		for _, rs := range routers {
			for _, rst := range rs.router.Stats() {
				fmt.Fprintf(w, "%-20s %-9s %6.1f %8d %8d %8d %8d %9d %8d %9.2f  %s\n",
					rst.Name, rst.State.String(), rst.Weight, rst.Requests, rst.Successes, rst.Failures,
					rst.Slices, rs.router.Failovers(), rs.router.Scatters(), rst.EWMALatencySeconds*1e3, rst.LastErr)
			}
		}
	}
	if cfg.cache > 0 {
		cst := eng.CacheStats()
		fmt.Fprintf(w, "\ncache: %d entries, %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			cst.Entries, cst.Hits, cst.Misses, cst.HitRate()*100, cst.Evictions)
	}
	printTierTable(w, eng, cfg)
	return nil
}
