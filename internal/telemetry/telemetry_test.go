package telemetry_test

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/telemetry"
)

// liveSetup runs a served index with every instrument source attached
// (serve metrics + PIM monitor) and a telemetry server over the shared
// registry, drives some traffic, and returns the scrape base URL.
func liveSetup(t *testing.T, health func() pimtrie.Health) (*metrics.Registry, string, func()) {
	t.Helper()
	reg := metrics.NewRegistry()
	r := rand.New(rand.NewSource(2))
	keys := make([]serve.Key, 0, 128)
	values := make([]uint64, 0, 128)
	for len(keys) < 128 {
		n := 1 + r.Intn(48)
		b := make([]byte, (n+7)/8)
		r.Read(b)
		keys = append(keys, pimtrie.KeyFromBytes(b).Prefix(n))
		values = append(values, uint64(len(keys)))
	}
	ix := pimtrie.New(8, pimtrie.Options{Seed: 4})
	mon := obs.NewMonitor(reg, ix.P())
	ix.SetRecorder(mon)
	ix.Load(keys, values)
	srv := serve.NewServer(ix, serve.Options{MaxBatch: 32, Metrics: reg})
	for i := 0; i < 30; i++ {
		if _, _, err := srv.GetAsync(keys[i%7], keys[i%len(keys)]).Wait(); err != nil {
			t.Fatalf("get: %v", err)
		}
	}
	if err := srv.Insert(keys[0], 999); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if health == nil {
		health = srv.Health
	}
	ts, err := telemetry.Start(telemetry.Options{Addr: "127.0.0.1:0", Registry: reg, Health: health})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return reg, "http://" + ts.Addr(), func() {
		_ = ts.Close()
		srv.Close()
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	_, base, stop := liveSetup(t, nil)
	defer stop()

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE pimtrie_serve_requests_total counter",
		`pimtrie_serve_requests_total{op="get"}`,
		"# TYPE pimtrie_serve_request_seconds histogram",
		`pimtrie_serve_request_seconds_bucket{op="get",le="+Inf"}`,
		"pimtrie_pim_rounds_total",
		"pimtrie_pim_io_imbalance_max_mean",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if problems := telemetry.LintExposition(body); len(problems) > 0 {
		t.Errorf("exposition lint: %v", problems)
	}

	code, body = get(t, base+"/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}

	code, body = get(t, base+"/varz")
	if code != 200 {
		t.Fatalf("/varz status %d", code)
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("/varz not JSON: %v", err)
	}
	if _, ok := v[`pimtrie_serve_requests_total{op="get"}`]; !ok {
		t.Errorf("/varz missing serve request counter; keys: %d", len(v))
	}
	h, ok := v[`pimtrie_serve_request_seconds{op="get"}`].(map[string]any)
	if !ok {
		t.Fatalf("/varz latency digest missing")
	}
	for _, field := range []string{"count", "p50", "p99", "max"} {
		if _, ok := h[field]; !ok {
			t.Errorf("/varz digest missing %q", field)
		}
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestHealthzFlips drives /healthz through the degraded transition via
// a swappable health callback, proving the probe reflects whatever the
// serving layer's post-epoch sample says without touching the index.
func TestHealthzFlips(t *testing.T) {
	var degraded atomic.Bool
	health := func() pimtrie.Health {
		if degraded.Load() {
			return pimtrie.Health{Degraded: true, DeadModules: []int{3}, Recoveries: 1}
		}
		return pimtrie.Health{Recoverable: true}
	}
	_, base, stop := liveSetup(t, health)
	defer stop()

	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Fatalf("healthy probe status %d", code)
	}
	degraded.Store(true)
	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded probe status %d, want 503", code)
	}
	var hb map[string]any
	if err := json.Unmarshal([]byte(body), &hb); err != nil {
		t.Fatalf("degraded body not JSON: %v (%q)", err, body)
	}
	if hb["degraded"] != true {
		t.Errorf("degraded body = %v", hb)
	}
	degraded.Store(false)
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Fatalf("recovered probe status %d", code)
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{
			"duplicate series",
			"# HELP a_total h\n# TYPE a_total counter\na_total 1\na_total 2\n",
			"duplicate series",
		},
		{
			"counter suffix",
			"# HELP a_count h\n# TYPE a_count counter\na_count 1\n",
			"does not end in _total",
		},
		{
			"histogram unit",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"lacks a unit suffix",
		},
		{
			"undeclared sample",
			"mystery 4\n",
			"no # TYPE",
		},
		{
			"non-cumulative buckets",
			"# HELP h_seconds h\n# TYPE h_seconds histogram\nh_seconds_bucket{le=\"1\"} 5\nh_seconds_bucket{le=\"2\"} 3\nh_seconds_bucket{le=\"+Inf\"} 5\nh_seconds_sum 1\nh_seconds_count 5\n",
			"not cumulative",
		},
		{
			"inf/count mismatch",
			"# HELP h_seconds h\n# TYPE h_seconds histogram\nh_seconds_bucket{le=\"+Inf\"} 4\nh_seconds_sum 1\nh_seconds_count 5\n",
			"!= _count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := telemetry.LintExposition(tc.text)
			found := false
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("lint %v missing %q", problems, tc.want)
			}
		})
	}
	clean := "# HELP ok_total h\n# TYPE ok_total counter\nok_total 1\n"
	if problems := telemetry.LintExposition(clean); len(problems) != 0 {
		t.Errorf("clean text flagged: %v", problems)
	}
}
