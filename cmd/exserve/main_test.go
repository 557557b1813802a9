package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	exsample "github.com/exsample/exsample"
	"github.com/exsample/exsample/backend/httpbatch"
	"github.com/exsample/exsample/cachestore"
	"github.com/exsample/exsample/cachestore/httpcache"
)

func testConfig(profiles []string, queries, limit int) config {
	return config{
		profiles: profiles,
		queries:  queries,
		limit:    limit,
		workers:  4,
		round:    2,
		scale:    0.02,
		seed:     3,
		shards:   1,
		replicas: 1,
	}
}

func TestRunConcurrentQueries(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, testConfig([]string{"dashcam", "bdd1k"}, 8, 5)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "engine: 8 queries") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "dashcam") || !strings.Contains(out, "bdd1k") {
		t.Fatalf("missing per-dataset rows:\n%s", out)
	}
	if !strings.Contains(out, "total:") {
		t.Fatalf("missing aggregate line:\n%s", out)
	}
}

func TestRunShardedWithCache(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 6, 5)
	cfg.shards = 2
	cfg.cache = 1 << 14
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2 shard(s)/profile") {
		t.Fatalf("missing shard header:\n%s", out)
	}
	if !strings.Contains(out, "shards of dashcam (generation 1):") {
		t.Fatalf("missing per-shard table:\n%s", out)
	}
	if !strings.Contains(out, "cache:") || !strings.Contains(out, "hit rate") {
		t.Fatalf("missing cache stats:\n%s", out)
	}
}

func TestRunHTTPBackendLoopback(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	cfg.backend = "http"
	cfg.shards = 2
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "http backend") {
		t.Fatalf("missing backend header:\n%s", out)
	}
	if !strings.Contains(out, "backend (httpbatch):") {
		t.Fatalf("missing backend table:\n%s", out)
	}
	if !strings.Contains(out, "avg-batch") || !strings.Contains(out, "server-s") {
		t.Fatalf("missing batch/latency columns:\n%s", out)
	}
	if !strings.Contains(out, "detect batches") {
		t.Fatalf("missing engine batch counter:\n%s", out)
	}
	// Two shards → two per-shard endpoint rows.
	if got := strings.Count(out, "dashcam      "); got < 2 {
		t.Fatalf("want 2 backend rows, table:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, testConfig([]string{"nonexistent"}, 2, 5)); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := run(&buf, testConfig([]string{""}, 2, 5)); err == nil {
		t.Error("empty profile list accepted")
	}
	if err := run(&buf, testConfig([]string{"dashcam"}, 0, 5)); err == nil {
		t.Error("zero queries accepted")
	}
	if err := run(&buf, testConfig([]string{"dashcam"}, 1, 0)); err == nil {
		t.Error("zero limit accepted")
	}
	bad := testConfig([]string{"dashcam"}, 1, 5)
	bad.shards = 0
	if err := run(&buf, bad); err == nil {
		t.Error("zero shards accepted")
	}
	bad = testConfig([]string{"dashcam"}, 1, 5)
	bad.backend = "grpc"
	if err := run(&buf, bad); err == nil {
		t.Error("unknown backend accepted")
	}
	bad = testConfig([]string{"dashcam"}, 1, 5)
	bad.endpoint = "http://example.invalid"
	if err := run(&buf, bad); err == nil {
		t.Error("-endpoint without -backend http accepted")
	}
}

func TestRunReplicatedBackendWithRouter(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	cfg.backend = "http"
	cfg.shards = 2
	cfg.replicas = 3
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 replica(s)/shard") {
		t.Fatalf("missing replica header:\n%s", out)
	}
	if !strings.Contains(out, "router health/failover:") {
		t.Fatalf("missing router health table:\n%s", out)
	}
	if !strings.Contains(out, "healthy") || !strings.Contains(out, "ewma-ms") {
		t.Fatalf("missing health columns:\n%s", out)
	}
	// 2 shards x 3 replicas = 6 replica rows named profile/sN/rM.
	for _, want := range []string{"dashcam/s0/r0", "dashcam/s0/r2", "dashcam/s1/r1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing replica row %s:\n%s", want, out)
		}
	}
}

func TestRunChurnCycleMidRun(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 6, 8)
	cfg.shards = 2
	cfg.churn = time.Millisecond
	// The delay has already elapsed when run starts the timer, so the
	// cycle runs whether or not the queries finish first.
	cfg.after = func(time.Duration) <-chan time.Time {
		fired := make(chan time.Time, 1)
		fired <- time.Time{}
		return fired
	}
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "churn: dashcam attached shard 2, draining shard 0") {
		t.Fatalf("missing churn line:\n%s", out)
	}
	if !strings.Contains(out, "generation 3") {
		t.Fatalf("shard table missing post-churn generation:\n%s", out)
	}
	if !strings.Contains(out, "draining") || !strings.Contains(out, "active") {
		t.Fatalf("shard table missing statuses:\n%s", out)
	}
}

func TestRunSighupTriggersChurn(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 6, 8)
	cfg.shards = 2
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGHUP
	cfg.churnSignal = sig
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "churn: dashcam attached shard") {
		t.Fatalf("SIGHUP did not trigger a churn cycle:\n%s", buf.String())
	}
}

func TestAdminHandler(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 1, 1)
	cfg.shards = 2
	f := &fleetState{shardSeq: make(map[string]uint64)}
	if _, err := f.openSource("dashcam", cfg); err != nil {
		t.Fatal(err)
	}
	h := f.adminHandler(&buf, cfg)

	get := func(method, url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
		return rec
	}
	if rec := get("GET", "/healthz"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"generation":1`) ||
		!strings.Contains(rec.Body.String(), `"status":"active"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("POST", "/admin/add?source=dashcam"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), `"shard":2`) {
		t.Fatalf("add: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("POST", "/admin/drain?source=dashcam&shard=0"); rec.Code != 200 {
		t.Fatalf("drain: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("POST", "/admin/drain?source=dashcam&shard=0"); rec.Code != http.StatusConflict {
		t.Fatalf("double drain: %d, want 409", rec.Code)
	}
	if rec := get("POST", "/admin/drain?source=dashcam"); rec.Code != http.StatusBadRequest {
		t.Fatalf("drain without shard: %d, want 400", rec.Code)
	}
	if rec := get("POST", "/admin/add?source=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("add unknown source: %d, want 404", rec.Code)
	}
	if rec := get("POST", "/admin/churn?source=dashcam"); rec.Code != 200 {
		t.Fatalf("churn: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("GET", "/healthz"); !strings.Contains(rec.Body.String(), `"status":"draining"`) {
		t.Fatalf("healthz after drain: %s", rec.Body.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	bad := testConfig([]string{"dashcam"}, 1, 5)
	bad.replicas = 0
	if err := run(&buf, bad); err == nil {
		t.Error("zero replicas accepted")
	}
	bad = testConfig([]string{"dashcam"}, 1, 5)
	bad.replicas = 2 // without -backend http
	if err := run(&buf, bad); err == nil {
		t.Error("-replicas without http backend accepted")
	}
	bad = testConfig([]string{"dashcam"}, 1, 5)
	bad.churn = time.Second // without shards
	if err := run(&buf, bad); err == nil {
		t.Error("-churn without -shards accepted")
	}
}

// TestRunRemoteCacheTier: two exserve runs against one shared httpcache
// server — the ops-surface equivalent of two processes splitting a
// detector bill. The first run fills the server; the second reads it and
// must show the tier table.
func TestRunRemoteCacheTier(t *testing.T) {
	srv := httptest.NewServer(httpcache.Handler(cachestore.NewLocal(1 << 16)))
	defer srv.Close()
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	cfg.cacheRemote = srv.URL
	var first bytes.Buffer
	if err := run(&first, cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "shared result tier") {
		t.Fatalf("first run missing tier table:\n%s", first.String())
	}
	var second bytes.Buffer
	if err := run(&second, cfg); err != nil {
		t.Fatal(err)
	}
	out := second.String()
	if !strings.Contains(out, "shared result tier") || !strings.Contains(out, "L2") {
		t.Fatalf("missing tier table:\n%s", out)
	}
}

func TestRunAdaptiveRounds(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	cfg.adaptive = true
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "adaptive rounds: base quota 2") {
		t.Fatalf("missing adaptive summary:\n%s", out)
	}
	if !strings.Contains(out, "quota") {
		t.Fatalf("missing per-query quota table:\n%s", out)
	}
}

func TestRunGlobalBudget(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	cfg.budget = 6
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "global budget: 6 frames/round, floor 1") {
		t.Fatalf("missing budget summary:\n%s", out)
	}
	if !strings.Contains(out, "granted") || !strings.Contains(out, "requested") {
		t.Fatalf("missing per-query budget table:\n%s", out)
	}
}

// queryRows maps each per-query row's "#" column to its found and frames
// columns. Class names may contain spaces, so the fields are read after
// the fixed-width "#", dataset and class columns.
func queryRows(t *testing.T, out string) map[string][2]string {
	t.Helper()
	const prefix = 3 + 1 + 12 + 1 + 14 + 1
	rows := make(map[string][2]string)
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "#   dataset"):
			inTable = true
		case line == "":
			inTable = false
		case inTable && len(line) > prefix:
			f := strings.Fields(line[prefix:])
			rows[strings.TrimSpace(line[:3])] = [2]string{f[0], f[1]}
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no query rows in:\n%s", out)
	}
	return rows
}

// TestRunExternalEndpoint: one shared client to an external httpbatch
// service, here a same-seed dashcam twin behind httptest, finds exactly
// what the in-process simulator finds at that seed.
func TestRunExternalEndpoint(t *testing.T) {
	cfg := testConfig([]string{"dashcam"}, 4, 5)
	twin, err := exsample.OpenProfile("dashcam", cfg.scale, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpbatch.Handler(twin.Backend()))
	defer srv.Close()

	var sim bytes.Buffer
	if err := run(&sim, cfg); err != nil {
		t.Fatal(err)
	}
	ext := cfg
	ext.backend = "http"
	ext.endpoint = srv.URL
	var remote bytes.Buffer
	if err := run(&remote, ext); err != nil {
		t.Fatal(err)
	}
	out := remote.String()
	if !strings.Contains(out, "backend (httpbatch):") {
		t.Fatalf("missing backend table:\n%s", out)
	}
	// The shared client is one row, shard "all", profile "(all)".
	if !strings.Contains(out, "\n(all)        all   ") {
		t.Fatalf("missing shared-endpoint backend row:\n%s", out)
	}
	want, got := queryRows(t, sim.String()), queryRows(t, out)
	if len(got) != cfg.queries || len(want) != cfg.queries {
		t.Fatalf("got %d endpoint rows and %d sim rows, want %d each", len(got), len(want), cfg.queries)
	}
	for q, w := range want {
		if got[q] != w {
			t.Errorf("query %s: endpoint found/frames %v, sim %v", q, got[q], w)
		}
	}
}
