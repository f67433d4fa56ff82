package serve_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
)

// TestServeMetricsMatchStats runs a mixed concurrent workload with a
// registry attached and asserts the live instruments agree exactly
// with the Stats counters the scheduler maintains under its own lock —
// the instruments must be an observation of the same events, not a
// second bookkeeping that can drift.
func TestServeMetricsMatchStats(t *testing.T) {
	reg := metrics.NewRegistry()
	srv, _, pool := newServed(t, 8, 256, serve.Options{
		MaxBatch:  64,
		MaxLinger: time.Millisecond,
		Metrics:   reg,
	})
	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for it := 0; it < iters; it++ {
				k := pool[r.Intn(32)] // small hot set: dedupe traffic
				switch r.Intn(8) {
				case 0:
					if err := srv.Insert(k, r.Uint64()); err != nil {
						t.Errorf("insert: %v", err)
					}
				case 1:
					if _, err := srv.DeleteAsync(k).Wait(); err != nil {
						t.Errorf("delete: %v", err)
					}
				case 2:
					if _, err := srv.LCPAsync(k, pool[r.Intn(len(pool))]).Wait(); err != nil {
						t.Errorf("lcp: %v", err)
					}
				case 3:
					if _, err := srv.Subtree(k.Prefix(1 + r.Intn(k.Len()))); err != nil {
						t.Errorf("subtree: %v", err)
					}
				default:
					if _, _, err := srv.GetAsync(k, pool[r.Intn(len(pool))]).Wait(); err != nil {
						t.Errorf("get: %v", err)
					}
				}
			}
		}(int64(300 + w))
	}
	wg.Wait()
	srv.Close()

	st := srv.Stats()
	v := reg.Varz()
	counter := func(series string) uint64 {
		c, ok := v[series].(uint64)
		if !ok {
			t.Fatalf("series %s missing or not a counter: %T", series, v[series])
		}
		return c
	}
	for op := serve.OpGet; op <= serve.OpDelete; op++ {
		l := `{op="` + op.String() + `"}`
		if got := counter("pimtrie_serve_requests_total" + l); got != st.Requests[op] {
			t.Errorf("requests[%v] = %d, Stats says %d", op, got, st.Requests[op])
		}
		if got := counter("pimtrie_serve_keys_requested_total" + l); got != st.KeysRequested[op] {
			t.Errorf("keys_requested[%v] = %d, Stats says %d", op, got, st.KeysRequested[op])
		}
		if got := counter("pimtrie_serve_keys_executed_total" + l); got != st.KeysExecuted[op] {
			t.Errorf("keys_executed[%v] = %d, Stats says %d", op, got, st.KeysExecuted[op])
		}
	}
	pairs := []struct {
		series string
		want   uint64
	}{
		{"pimtrie_serve_read_epochs_total", st.ReadEpochs},
		{"pimtrie_serve_write_epochs_total", st.WriteEpochs},
		{"pimtrie_serve_read_keys_deduped_total", st.DedupedKeys},
	}
	for _, p := range pairs {
		if got := counter(p.series); got != p.want {
			t.Errorf("%s = %d, Stats says %d", p.series, got, p.want)
		}
	}

	// Every admitted request resolves exactly once, so the latency
	// histograms must account for every request.
	var requests, observed uint64
	for op := serve.OpGet; op <= serve.OpDelete; op++ {
		requests += st.Requests[op]
		h, ok := v[`pimtrie_serve_request_seconds{op="`+op.String()+`"}`].(metrics.VarzHistogram)
		if !ok {
			t.Fatalf("latency histogram for %v missing", op)
		}
		observed += h.Count
	}
	if observed != requests {
		t.Errorf("latency observations = %d, admitted requests = %d", observed, requests)
	}

	// Quiesced server: nothing queued, no stage running.
	if d := v["pimtrie_serve_queue_depth"].(float64); d != 0 {
		t.Errorf("queue depth after Close = %v, want 0", d)
	}
	for _, stage := range []string{"prepare", "execute"} {
		if b := v[`pimtrie_serve_stage_busy{stage="`+stage+`"}`].(float64); b != 0 {
			t.Errorf("stage_busy{%s} after Close = %v, want 0", stage, b)
		}
	}

	// The dedupe-ratio gauge must equal the ratio its own counters imply.
	d := float64(st.DedupedKeys)
	e := float64(st.KeysExecuted[serve.OpGet] + st.KeysExecuted[serve.OpLCP] + st.KeysExecuted[serve.OpSubtree])
	if d > 0 {
		want := d / (d + e)
		if got := v["pimtrie_serve_read_dedupe_ratio"].(float64); got != want {
			t.Errorf("dedupe ratio gauge = %v, counters imply %v", got, want)
		}
	}

	// Healthy index: /healthz inputs are green.
	if got := v["pimtrie_index_degraded"].(float64); got != 0 {
		t.Errorf("degraded gauge = %v, want 0", got)
	}
	if h := srv.Health(); !h.Recoverable && len(h.DeadModules) != 0 {
		t.Errorf("Health() = %+v, want clean", h)
	}
}

// TestServeMetricsHealthFeed injects a scheduled module crash and
// asserts the post-epoch health sampling turns it into fault/recovery
// counters and keeps /healthz-style state fresh without touching the
// index from the scrape side.
func TestServeMetricsHealthFeed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keys := make([]serve.Key, 0, 128)
	values := make([]uint64, 0, 128)
	seen := map[string]bool{}
	for len(keys) < 128 {
		k := randomKey(r, 48)
		id := string(k.Bytes()) + ":" + string(rune(k.Len()))
		if seen[id] {
			continue
		}
		seen[id] = true
		keys = append(keys, k)
		values = append(values, uint64(len(keys)))
	}
	ix := pimtrie.New(4, pimtrie.Options{
		Seed: 3,
		Faults: &pimtrie.FaultPlan{
			Seed:   9,
			Events: []pimtrie.FaultEvent{{Round: 30, Kind: pimtrie.FaultCrash, Module: 1}},
		},
	})
	if err := ix.TryLoad(keys, values); err != nil {
		t.Fatalf("load: %v", err)
	}
	reg := metrics.NewRegistry()
	srv := serve.NewServer(ix, serve.Options{MaxBatch: 32, Metrics: reg})
	for i := 0; i < 40; i++ {
		if _, _, err := srv.GetAsync(keys[i%len(keys)], keys[(i*7)%len(keys)]).Wait(); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	srv.Close()
	h := srv.Health()
	if h.Crashes == 0 || h.Recoveries == 0 {
		t.Fatalf("fault plan did not fire/recover: %+v", h)
	}
	v := reg.Varz()
	if got := v[`pimtrie_index_faults_total{kind="crash"}`].(uint64); got != uint64(h.Crashes) {
		t.Errorf("crash counter = %d, Health says %d", got, h.Crashes)
	}
	if got := v["pimtrie_index_recoveries_total"].(uint64); got != uint64(h.Recoveries) {
		t.Errorf("recoveries counter = %d, Health says %d", got, h.Recoveries)
	}
	if got := v["pimtrie_index_recovery_io_words_total"].(uint64); got != uint64(h.RecoveryCost.IOWords) {
		t.Errorf("recovery IO counter = %d, Health says %d", got, h.RecoveryCost.IOWords)
	}
	if got := v["pimtrie_index_degraded"].(float64); got != 0 {
		t.Errorf("degraded after successful recovery = %v, want 0", got)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE pimtrie_serve_request_seconds histogram",
		"pimtrie_serve_request_seconds_count",
		"# TYPE pimtrie_index_faults_total counter",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestServeMetricsOff asserts a server without a registry works and
// records nothing anywhere — the nil-check-only contract.
func TestServeMetricsOff(t *testing.T) {
	srv, _, pool := newServed(t, 4, 32, serve.Options{})
	defer srv.Close()
	if _, _, err := srv.GetAsync(pool...).Wait(); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.Degraded || len(h.DeadModules) != 0 {
		t.Errorf("Health on plain server = %+v", h)
	}
}
