package main

// The -serve-sweep suite (BENCH_PR7.json): one serving workload driven
// across a static MaxLinger grid, so the report shows what each linger
// trades between throughput and tail latency at identical concurrency
// and skew. The same file carries the host-probe microbenchmark: the
// flattened-trie batch probe against the pointer-chasing walk it
// replaces, at several batch sizes, measured on an index-scale trie.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/experiments"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

// SweepPoint is one linger setting's measured serving record.
type SweepPoint struct {
	ServeScenario
	// LingerSec is the static max-linger of this point.
	LingerSec float64 `json:"linger_sec"`
}

// HostProbePoint compares the flattened-array batch probe against the
// pointer-chasing baseline at one batch size.
type HostProbePoint struct {
	BatchSize       int     `json:"batch_size"`
	PointerNsPerKey float64 `json:"pointer_ns_per_key"`
	FlatNsPerKey    float64 `json:"flat_ns_per_key"`
	Speedup         float64 `json:"speedup"`
}

// HostProbeReport is the host-probe-bound scenario: Get over a trie too
// big for cache, flat layout vs node pointers.
type HostProbeReport struct {
	TrieKeys    int              `json:"trie_keys"`
	LookupsEach int              `json:"lookups_each"`
	Points      []HostProbePoint `json:"points"`
	// BestSpeedup is the largest per-batch-size speedup — the headline
	// host-probe MLP gain.
	BestSpeedup float64 `json:"best_speedup"`
}

// PR6Baseline quotes the prior report's coalesced scenario for the
// delta columns.
type PR6Baseline struct {
	Source    string  `json:"source"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ns     float64 `json:"p50_ns"`
	P95Ns     float64 `json:"p95_ns"`
	P99Ns     float64 `json:"p99_ns"`
}

// SweepReport is the file format of -serve-sweep output.
type SweepReport struct {
	Scale       experiments.Scale `json:"scale"`
	GoMaxProcs  int               `json:"go_max_procs"`
	When        string            `json:"when"`
	Concurrency int               `json:"concurrency"`
	Depth       int               `json:"pipeline_depth"`
	Zipf        float64           `json:"zipf"`
	DurationSec float64           `json:"duration_sec"`
	Points      []SweepPoint      `json:"points"`
	HostProbe   HostProbeReport   `json:"host_probe"`
	Baseline    *PR6Baseline      `json:"baseline_pr6,omitempty"`
	// P50ReductionVsPR6Pct is 100·(1 − p50(best point)/p50(PR6
	// coalesced)) — the serve tail-latency claim against the prior PR's
	// report at the same concurrency, depth and skew.
	P50ReductionVsPR6Pct float64 `json:"p50_reduction_vs_pr6_pct,omitempty"`
	OpsGainVsPR6         float64 `json:"ops_gain_vs_pr6,omitempty"`
}

// loadPR6Baseline pulls the coalesced scenario out of a prior -serve
// report; a missing or malformed file just drops the delta columns.
func loadPR6Baseline(path string) *PR6Baseline {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var rep ServeReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil
	}
	for _, r := range rep.Results {
		if r.Name == "coalesced" {
			return &PR6Baseline{
				Source:    path,
				OpsPerSec: r.OpsPerSec,
				P50Ns:     r.Latency.P50Ns,
				P95Ns:     r.Latency.P95Ns,
				P99Ns:     r.Latency.P99Ns,
			}
		}
	}
	return nil
}

// runHostProbe measures flat vs pointer probes. The trie is built far
// past cache size so probes are DRAM-bound — the regime the flattened
// layout and interleaved batch loop exist for.
func runHostProbe(nkeys int, batchSizes []int) HostProbeReport {
	g := workload.New(11)
	keys := g.VarLen(nkeys, 48, 160)
	tr := trie.New()
	for i, k := range keys {
		tr.Insert(k, uint64(i))
	}
	flat := trie.Flatten(tr)

	// Query stream: stored keys in a scattered order plus a share of
	// misses, regenerated per batch size from the same seed so both
	// layouts see identical probes.
	const lookups = 1 << 18
	queries := make([]bitstr.String, lookups)
	stream := workload.NewKeyStream(keys, 7, 0)
	miss := g.FixedLen(lookups/8, 96)
	for i := range queries {
		if i%8 == 7 {
			queries[i] = miss[i/8]
		} else {
			queries[i] = stream.Next()
		}
	}

	rep := HostProbeReport{TrieKeys: nkeys, LookupsEach: lookups}
	for _, bs := range batchSizes {
		vals := make([]uint64, bs)
		found := make([]bool, bs)

		// Pointer-chasing baseline: one dependent-load walk per key.
		start := time.Now()
		var sinkP uint64
		for off := 0; off+bs <= lookups; off += bs {
			for _, q := range queries[off : off+bs] {
				v, ok := tr.Get(q)
				if ok {
					sinkP += v
				}
			}
		}
		ptrNs := float64(time.Since(start).Nanoseconds()) / float64(lookups/bs*bs)

		// Flattened batch probe: interleaved lanes over dense arrays.
		start = time.Now()
		var sinkF uint64
		for off := 0; off+bs <= lookups; off += bs {
			flat.GetBatch(queries[off:off+bs], vals, found)
			sinkF += vals[0]
		}
		flatNs := float64(time.Since(start).Nanoseconds()) / float64(lookups/bs*bs)
		if sinkF > sinkP+uint64(lookups) { // keep both sinks live
			fmt.Fprintln(os.Stderr, "host-probe: sink mismatch (benchmark only)")
		}

		p := HostProbePoint{BatchSize: bs, PointerNsPerKey: ptrNs, FlatNsPerKey: flatNs}
		if flatNs > 0 {
			p.Speedup = ptrNs / flatNs
		}
		if p.Speedup > rep.BestSpeedup {
			rep.BestSpeedup = p.Speedup
		}
		rep.Points = append(rep.Points, p)
		fmt.Printf("host-probe batch=%-5d pointer %6.1f ns/key  flat %6.1f ns/key  speedup %.2fx\n",
			bs, ptrNs, flatNs, p.Speedup)
	}
	return rep
}

// runServeSweep executes the linger sweep plus the host-probe scenario
// and writes the JSON report to path ("-" for stdout-only).
func runServeSweep(sc experiments.Scale, conc, depth int, zipfS float64, dur time.Duration, path, baselinePath string, pl *obsPlane) error {
	rep := SweepReport{
		Scale:       sc,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		When:        time.Now().UTC().Format(time.RFC3339),
		Concurrency: conc,
		Depth:       depth,
		Zipf:        zipfS,
		DurationSec: dur.Seconds(),
		Baseline:    loadPR6Baseline(baselinePath),
	}
	fmt.Printf("serve-sweep: %d clients x depth %d, Zipf(%.2f), %v per point, P=%d n=%d (GOMAXPROCS=%d)\n\n",
		conc, depth, zipfS, dur, sc.P, sc.N, rep.GoMaxProcs)

	rep.HostProbe = runHostProbe(200_000, []int{8, 64, 256, 1024})
	fmt.Println()

	grid := []time.Duration{0, 100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond}
	show := func(p SweepPoint) {
		policy := fmt.Sprintf("linger=%v", time.Duration(p.LingerSec*float64(time.Second)))
		fmt.Printf("%-16s %9.0f ops/s  p50 %9s  p95 %9s  p99 %9s  avg %6.1f keys/epoch\n",
			policy, p.OpsPerSec,
			time.Duration(int64(p.Latency.P50Ns)).Round(time.Microsecond),
			time.Duration(int64(p.Latency.P95Ns)).Round(time.Microsecond),
			time.Duration(int64(p.Latency.P99Ns)).Round(time.Microsecond),
			p.AvgEpochKeys)
	}
	for _, lg := range grid {
		runtime.GC()
		res, _ := runServeScenario(fmt.Sprintf("static-%v", lg), modeServe, sc, conc, depth, zipfS, dur, lg, pl)
		pt := SweepPoint{ServeScenario: res, LingerSec: lg.Seconds()}
		show(pt)
		rep.Points = append(rep.Points, pt)
	}
	if rep.Baseline != nil && rep.Baseline.P50Ns > 0 {
		best := rep.Points[0]
		for _, p := range rep.Points[1:] {
			if p.Latency.P50Ns < best.Latency.P50Ns && p.OpsPerSec >= rep.Baseline.OpsPerSec {
				best = p
			}
		}
		rep.P50ReductionVsPR6Pct = 100 * (1 - best.Latency.P50Ns/rep.Baseline.P50Ns)
		rep.OpsGainVsPR6 = best.OpsPerSec / rep.Baseline.OpsPerSec
		fmt.Printf("\nvs %s coalesced: p50 %.1f%% lower, ops/sec %.2fx\n",
			rep.Baseline.Source, rep.P50ReductionVsPR6Pct, rep.OpsGainVsPR6)
	}
	fmt.Printf("host-probe best speedup (flat vs pointer): %.2fx\n\n", rep.HostProbe.BestSpeedup)

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
