package main

// Concurrent-serving benchmark (-serve): closed-loop clients hammer one
// index through serve.Server and through the naive alternative (a mutex
// around one-key-per-batch direct Index calls — what a caller without
// the serving layer would write), at the same concurrency and key skew.
// The interesting number is the coalescing speedup: batches are the
// unit of parallelism in the PIM model, so turning C concurrent
// single-key requests into large epochs is where the serving layer
// earns its keep.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/experiments"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/workload"
)

// ServeScenario is one serving configuration's measured record.
type ServeScenario struct {
	Name      string         `json:"name"`
	Requests  int64          `json:"requests"`
	OpsPerSec float64        `json:"ops_per_sec"`
	Latency   LatencySummary `json:"latency"`
	// Serving-layer counters (zero for the naive baseline).
	ReadEpochs   uint64  `json:"read_epochs,omitempty"`
	WriteEpochs  uint64  `json:"write_epochs,omitempty"`
	AvgEpochKeys float64 `json:"avg_epoch_keys,omitempty"`
	MaxEpochKeys int     `json:"max_epoch_keys,omitempty"`
	DedupedKeys  uint64  `json:"deduped_keys,omitempty"`
	DedupeRatio  float64 `json:"dedupe_ratio,omitempty"`
}

// ServeReport is the file format of -serve output (BENCH_PR5.json).
type ServeReport struct {
	Scale       experiments.Scale `json:"scale"`
	GoMaxProcs  int               `json:"go_max_procs"`
	When        string            `json:"when"`
	Concurrency int               `json:"concurrency"`
	Depth       int               `json:"pipeline_depth"`
	Zipf        float64           `json:"zipf"`
	DurationSec float64           `json:"duration_sec"`
	Results     []ServeScenario   `json:"results"`
	LingerSec   float64           `json:"linger_sec"`
	// SpeedupVsNaive is the coalescing Server's ops/sec over the naive
	// one-request-per-batch loop at identical concurrency and skew.
	SpeedupVsNaive float64 `json:"speedup_vs_naive"`
	// MetricsOverheadPct is the throughput cost of the full telemetry
	// plane (serve instruments + PIM monitor). A single A/B run is too
	// noisy to trust on a loaded host, so the suite runs the coalesced
	// and coalesced+metrics configurations as OverheadPasses interleaved
	// pairs (order alternating within pairs) and reports 100 x (1 -
	// median over pairs of ops/sec(metrics)/ops/sec(plain)): pairing
	// cancels slow host drift, alternation cancels order effects, the
	// median discards GC/scheduler outliers. Negative values are
	// residual noise.
	MetricsOverheadPct float64 `json:"metrics_overhead_pct"`
	OverheadPasses     int     `json:"overhead_passes"`
}

type serveMode int

const (
	modeNaive   serveMode = iota // mutex + one-key batches, no Server
	modeServe                    // coalescing Server
	modeMetrics                  // modeServe plus the full telemetry plane
	modeMixed                    // Server, 90% get / 5% insert / 5% delete
)

// inflight is one pipelined request a client has submitted but not yet
// reaped.
type inflight struct {
	start time.Time
	wait  func()
}

// scenarioRaw carries the pre-digest measurement state of one scenario
// pass, so several passes of the same configuration can be merged into
// one record (latency samples re-summarized, derived ratios recomputed
// from summed numerators/denominators rather than averaged).
type scenarioRaw struct {
	rec      *latencyRecorder
	execKeys uint64 // keys executed across all ops
	readKeys uint64 // keys executed by read ops (dedupe-ratio denominator)
}

// runServeScenario runs conc closed-loop clients for dur against a
// fresh index and returns the measured record. Clients of the serving
// modes pipeline depth async requests each (the point of the async
// API: pending requests are what the scheduler coalesces); the naive
// baseline gains nothing from pipelining — every request is its own
// one-key batch behind the mutex — so its clients loop synchronously.
func runServeScenario(name string, mode serveMode, sc experiments.Scale, conc, depth int, zipfS float64, dur, linger time.Duration, pl *obsPlane) (ServeScenario, scenarioRaw) {
	idx, keys, _ := opIndex(sc, 6)
	// The scheduler coalesces whatever is in flight; cap epochs at the
	// full pipeline window (conc clients x depth pending each) so the
	// batch-size amortization isn't artificially cut short.
	maxBatch := conc * depth
	if maxBatch < sc.Batch {
		maxBatch = sc.Batch
	}
	var srv *serve.Server
	switch mode {
	case modeServe, modeMixed:
		srv = serve.NewServer(idx, serve.Options{MaxBatch: maxBatch, MaxLinger: linger})
	case modeMetrics:
		// Same configuration as modeServe with the whole telemetry plane
		// attached — serving instruments plus the PIM monitor — so the
		// coalesced/coalesced+metrics throughput delta IS the plane's cost.
		// The registry is shared with -metrics-addr when given, so a
		// scraper sees this scenario live; otherwise it is run-local.
		reg := metrics.NewRegistry()
		if pl != nil {
			reg = pl.reg
		}
		idx.SetRecorder(obs.NewMonitor(reg, idx.P()))
		srv = serve.NewServer(idx, serve.Options{MaxBatch: maxBatch, MaxLinger: linger, Metrics: reg})
		if pl != nil {
			pl.srv.Store(srv)
		}
	}
	var mu sync.Mutex // modeNaive: the serialization a Server-less caller needs
	var stop atomic.Bool
	var total atomic.Int64
	lats := make([]*latencyRecorder, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		lat := &latencyRecorder{}
		lats[w] = lat
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := workload.NewKeyStream(keys, int64(1000+w), zipfS)
			r := rand.New(rand.NewSource(int64(2000 + w)))
			n := int64(0)
			if mode == modeNaive {
				for !stop.Load() {
					k := stream.Next()
					start := time.Now()
					mu.Lock()
					idx.Get([]pimtrie.Key{k})
					mu.Unlock()
					lat.observe(time.Since(start))
					n++
				}
				total.Add(n)
				return
			}
			submit := func(k pimtrie.Key) func() {
				switch {
				case mode == modeMixed && r.Intn(20) == 0:
					f := srv.InsertAsync([]pimtrie.Key{k}, []uint64{r.Uint64()})
					return func() { f.Wait() }
				case mode == modeMixed && r.Intn(19) == 0:
					f := srv.DeleteAsync(k)
					return func() { f.Wait() }
				default:
					f := srv.GetAsync(k)
					return func() { f.Wait() }
				}
			}
			// Ring of pending requests: reap the oldest once depth are
			// in flight, then submit the next into the freed slot.
			window := make([]inflight, depth)
			pending, head := 0, 0
			for !stop.Load() {
				if pending == depth {
					h := window[head]
					head = (head + 1) % depth
					pending--
					h.wait()
					lat.observe(time.Since(h.start))
					n++
				}
				k := stream.Next()
				window[(head+pending)%depth] = inflight{start: time.Now(), wait: submit(k)}
				pending++
			}
			for i := 0; i < pending; i++ {
				window[(head+i)%depth].wait()
			}
			total.Add(n)
		}(w)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := dur.Seconds()
	if srv != nil {
		srv.Close()
	}
	all := &latencyRecorder{}
	all.merge(lats...)
	raw := scenarioRaw{rec: all}
	out := ServeScenario{
		Name:      name,
		Requests:  total.Load(),
		OpsPerSec: float64(total.Load()) / elapsed,
		Latency:   all.summary(),
	}
	if srv != nil {
		st := srv.Stats()
		out.ReadEpochs, out.WriteEpochs = st.ReadEpochs, st.WriteEpochs
		out.DedupedKeys = st.DedupedKeys
		out.MaxEpochKeys = st.MaxEpochKeys
		for op := range st.KeysExecuted {
			raw.execKeys += st.KeysExecuted[op]
		}
		if epochs := st.ReadEpochs + st.WriteEpochs; epochs > 0 {
			out.AvgEpochKeys = float64(raw.execKeys) / float64(epochs)
		}
		for _, op := range []serve.Op{serve.OpGet, serve.OpLCP, serve.OpSubtree} {
			raw.readKeys += st.KeysExecuted[op]
		}
		if st.DedupedKeys > 0 {
			out.DedupeRatio = float64(st.DedupedKeys) / float64(st.DedupedKeys+raw.readKeys)
		}
	}
	return out, raw
}

// mergePasses folds several passes of one configuration into a single
// record over their combined wall-clock: counters sum, the latency
// digest is recomputed over the pooled samples, and the derived ratios
// are recomputed from summed parts (a mean of per-pass ratios would
// weight short passes equally with long ones).
func mergePasses(name string, passes []ServeScenario, raws []scenarioRaw, totalSec float64) ServeScenario {
	out := ServeScenario{Name: name}
	all := &latencyRecorder{}
	var execd, reads uint64
	for i := range passes {
		p := &passes[i]
		out.Requests += p.Requests
		out.ReadEpochs += p.ReadEpochs
		out.WriteEpochs += p.WriteEpochs
		out.DedupedKeys += p.DedupedKeys
		if p.MaxEpochKeys > out.MaxEpochKeys {
			out.MaxEpochKeys = p.MaxEpochKeys
		}
		all.merge(raws[i].rec)
		execd += raws[i].execKeys
		reads += raws[i].readKeys
	}
	out.OpsPerSec = float64(out.Requests) / totalSec
	if epochs := out.ReadEpochs + out.WriteEpochs; epochs > 0 {
		out.AvgEpochKeys = float64(execd) / float64(epochs)
	}
	if out.DedupedKeys > 0 {
		out.DedupeRatio = float64(out.DedupedKeys) / float64(out.DedupedKeys+reads)
	}
	out.Latency = all.summary()
	return out
}

// runServeSuite executes the serving scenarios and writes the JSON
// report to path ("-" for stdout-only).
func runServeSuite(sc experiments.Scale, conc, depth int, zipfS float64, dur, linger time.Duration, path string, pl *obsPlane) error {
	rep := ServeReport{
		Scale:       sc,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		When:        time.Now().UTC().Format(time.RFC3339),
		Concurrency: conc,
		Depth:       depth,
		Zipf:        zipfS,
		DurationSec: dur.Seconds(),
		LingerSec:   linger.Seconds(),
	}
	fmt.Printf("serve: %d clients x depth %d, Zipf(%.2f), %v per scenario, linger %v, P=%d n=%d (GOMAXPROCS=%d)\n\n",
		conc, depth, zipfS, dur, linger, sc.P, sc.N, rep.GoMaxProcs)
	show := func(res ServeScenario) {
		fmt.Printf("%-20s %9.0f ops/s  p50 %8s  p99 %8s  epochs %d/%d  avg %5.1f keys/epoch  dedup %4.1f%%\n",
			res.Name, res.OpsPerSec,
			time.Duration(int64(res.Latency.P50Ns)).Round(time.Microsecond),
			time.Duration(int64(res.Latency.P99Ns)).Round(time.Microsecond),
			res.ReadEpochs, res.WriteEpochs, res.AvgEpochKeys, 100*res.DedupeRatio)
	}
	run := func(name string, mode serveMode, d time.Duration) (ServeScenario, scenarioRaw) {
		return runServeScenario(name, mode, sc, conc, depth, zipfS, d, linger, pl)
	}

	naive, _ := run("naive-1key-batches", modeNaive, dur)
	show(naive)

	// Telemetry overhead: interleaved A/B pairs (see MetricsOverheadPct).
	// Each pass gets dur/passes so the pair together costs the same wall
	// clock as two plain scenarios; the published records merge the
	// passes back into full-duration equivalents. Which configuration
	// runs first alternates per pair (ABBA-style) so any monotone host
	// drift biases half the pairs one way and half the other, and every
	// timed pass starts from a collected heap.
	const overheadPasses = 5
	rep.OverheadPasses = overheadPasses
	passDur := dur / overheadPasses
	var plainP, metP []ServeScenario
	var plainR, metR []scenarioRaw
	var ratios []float64
	for i := 0; i < overheadPasses; i++ {
		var a, b ServeScenario
		var ar, br scenarioRaw
		if i%2 == 0 {
			runtime.GC()
			a, ar = run("coalesced", modeServe, passDur)
			runtime.GC()
			b, br = run("coalesced+metrics", modeMetrics, passDur)
		} else {
			runtime.GC()
			b, br = run("coalesced+metrics", modeMetrics, passDur)
			runtime.GC()
			a, ar = run("coalesced", modeServe, passDur)
		}
		plainP, plainR = append(plainP, a), append(plainR, ar)
		metP, metR = append(metP, b), append(metR, br)
		if a.OpsPerSec > 0 {
			ratios = append(ratios, b.OpsPerSec/a.OpsPerSec)
		}
	}
	passSec := float64(overheadPasses) * passDur.Seconds()
	coalesced := mergePasses("coalesced", plainP, plainR, passSec)
	withMetrics := mergePasses("coalesced+metrics", metP, metR, passSec)
	show(coalesced)
	show(withMetrics)
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		rep.MetricsOverheadPct = 100 * (1 - ratios[len(ratios)/2])
	}

	mixed, _ := run("mixed-writes", modeMixed, dur)
	show(mixed)
	rep.Results = []ServeScenario{naive, coalesced, withMetrics, mixed}

	if naive.OpsPerSec > 0 {
		rep.SpeedupVsNaive = coalesced.OpsPerSec / naive.OpsPerSec
	}
	fmt.Printf("\nserving-layer speedup vs naive loop: %.2fx\n", rep.SpeedupVsNaive)
	fmt.Printf("telemetry-plane overhead: %.2f%% (median of %d interleaved pairs)\n\n",
		rep.MetricsOverheadPct, overheadPasses)
	if path == "" || path == "-" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
