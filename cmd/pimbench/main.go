// Command pimbench regenerates every table and figure of the PIM-trie
// paper's evaluation (DESIGN.md §3 maps each experiment to its paper
// artifact). Results are PIM Model metrics measured on the simulator.
//
// Usage:
//
//	pimbench                         # run everything at the default scale
//	pimbench -exp E2,E7              # run selected experiments
//	pimbench -p 64 -n 50000 -batch 4096 -seed 7
//	pimbench -list                   # list experiment IDs
//	pimbench -exp E2 -trace t.jsonl  # phase-attributed trace (pimtrie-trace reads it)
//	pimbench -faults                 # fault-injection/recovery experiment (EF)
//	pimbench -json results.json      # machine-readable tables
//	pimbench -bench BENCH.json       # wall-clock suite (ns/op, allocs/op, rounds/s)
//	pimbench -bench - -cpuprofile cpu.pprof -memprofile mem.pprof
//	pimbench -serve BENCH_PR5.json -conc 64 -zipf 1.0   # concurrent serving suite
//	pimbench -serve-read BENCH_PR10.json             # strong vs snapshot read paths
//	pimbench -durable BENCH_PR9.json                 # WAL fsync-policy overhead
//	pimbench -restart-chaos 8                        # SIGKILL + bit-exact recovery
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pimlab/pimtrie/internal/experiments"
	"github.com/pimlab/pimtrie/internal/obs"
	"github.com/pimlab/pimtrie/internal/pim"
)

var registry = []struct {
	id, what string
	run      func(experiments.Scale) experiments.Table
}{
	{"E1", "Table 1 space column", experiments.SpaceTable},
	{"E2", "Table 1 IO rounds (LCP)", experiments.RoundsLCP},
	{"E2b", "rounds/IO-time vs P", experiments.RoundsVsP},
	{"E3", "Table 1 IO rounds (Insert/Delete)", experiments.RoundsUpdate},
	{"E4", "Table 1 IO rounds (Subtree)", experiments.RoundsSubtree},
	{"E5", "Table 1 communication (LCP/Insert)", experiments.CommPerOp},
	{"E6", "Table 1 communication (Subtree)", experiments.CommSubtree},
	{"E7", "skew resistance (query skew)", experiments.SkewBalance},
	{"E7b", "skew resistance (data skew)", experiments.SkewedDataBalance},
	{"E8", "Theorem 4.3 bound check", experiments.TheoremBounds},
	{"E9a", "ablation: block size", experiments.AblationBlockSize},
	{"E9b", "ablation: push-pull threshold", experiments.AblationPushPull},
	{"E9c", "ablation: hash width", experiments.AblationHashWidth},
	{"E9d", "ablation: region size", experiments.AblationRegionSize},
	{"E9e", "ablation: pivot probing", experiments.AblationPivotProbing},
	{"EF", "fault injection: module-loss recovery", experiments.FaultRecovery},
}

// traceCollector attaches an obs.Tracer to every system an experiment
// creates (via the pim system hook) and remembers them for export.
type traceCollector struct {
	mu      sync.Mutex
	exp     string // current experiment ID, set by the run loop
	n       int    // systems seen within the current experiment
	tracers []*obs.Tracer
}

func (c *traceCollector) setExperiment(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.exp, c.n = id, 0
}

func (c *traceCollector) hook(sys *pim.System) {
	c.mu.Lock()
	defer c.mu.Unlock()
	label := fmt.Sprintf("%s/sys%02d", c.exp, c.n)
	c.n++
	c.tracers = append(c.tracers, obs.Attach(sys, label))
}

func (c *traceCollector) export(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, t := range c.tracers {
		t.Detach()
		d := t.Data()
		if err := d.Check(); err != nil {
			f.Close()
			return fmt.Errorf("trace %s failed self-check: %w", t.Label(), err)
		}
		if err := d.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func main() {
	var (
		exps  = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		p     = flag.Int("p", experiments.DefaultScale.P, "number of PIM modules")
		n     = flag.Int("n", experiments.DefaultScale.N, "stored keys")
		batch = flag.Int("batch", experiments.DefaultScale.Batch, "queries per batch")
		seed  = flag.Int64("seed", experiments.DefaultScale.Seed, "workload/placement seed")
		flts  = flag.Bool("faults", false, "run the fault-injection/recovery experiment (shorthand for -exp EF)")
		trace = flag.String("trace", "", "write a phase-attributed JSONL trace of every system to this path")
		jsonP = flag.String("json", "", "write machine-readable results (experiment id -> table) to this path")
		bench = flag.String("bench", "", "run the wall-clock benchmark suite and write a JSON report to this path (\"-\" for stdout only)")
		srvP  = flag.String("serve", "", "run the concurrent-serving benchmark and write a JSON report to this path (\"-\" for stdout only)")
		srdP  = flag.String("serve-read", "", "run the read-path benchmark (read-mix x consistency-mode x clients grid) and write a JSON report to this path (\"-\" for stdout only)")
		durbP = flag.String("durable", "", "run the write-durability benchmark (WAL fsync policies vs non-durable baseline) and write a JSON report to this path (\"-\" for stdout only)")
		walD  = flag.String("wal-dir", "", "durability: directory for write-ahead-log state (default: a temp dir)")
		walS  = flag.String("wal-sync", "interval", "durability: WAL fsync policy — epoch, interval or off")
		chaoN = flag.Int("restart-chaos", 0, "run this many crash-restart chaos rounds (SIGKILL a serving child, verify bit-exact recovery) and exit")
		chaoC = flag.Bool("restart-chaos-child", false, "internal: run as the -restart-chaos serving child")
		swpP  = flag.String("serve-sweep", "", "sweep a static MaxLinger grid plus the host-probe scenario; write a JSON report to this path (\"-\" for stdout only)")
		shdP  = flag.String("shards", "", "run the sharded scale-out benchmark (scaling curve + hot-range migration) and write a JSON report to this path (\"-\" for stdout only)")
		shdC  = flag.String("shard-counts", "1,2,4,8", "-shards: comma-separated shard counts of the scaling curve")
		swpB  = flag.String("sweep-baseline", "BENCH_PR6.json", "-serve-sweep: prior -serve report to quote as the delta baseline")
		conc  = flag.Int("conc", 64, "-serve: closed-loop client goroutines")
		depth = flag.Int("depth", 32, "-serve: async requests each client keeps in flight (naive baseline always 1)")
		zipfS = flag.Float64("zipf", 1.0, "-serve: Zipf exponent of the key stream (0 = uniform; values <= 1 clamp to 1.01)")
		dur   = flag.Duration("dur", 2*time.Second, "-serve: measured duration per scenario")
		lngr  = flag.Duration("linger", 200*time.Microsecond, "-serve: Server max-linger (group-commit window)")
		cpuP  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (analyze with go tool pprof)")
		memP  = flag.String("memprofile", "", "write an allocation profile of the run to this path")
		maddr = flag.String("metrics-addr", "", "serve live telemetry (/metrics, /varz, /healthz, /debug/pprof) on this address while the run lasts")
	)
	flag.Parse()

	if *chaoC {
		// Chaos child: never returns on the happy path — the parent kills it.
		err := runChaosChild(*walD, *p, *seed, *walS)
		fmt.Fprintf(os.Stderr, "pimbench: chaos child: %v\n", err)
		os.Exit(1)
	}
	if *chaoN > 0 {
		if err := runChaosParent(*chaoN, *walD, *p, *seed, *walS); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: restart-chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var plane *obsPlane
	if *maddr != "" {
		pl, ts, err := startTelemetry(*maddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %v\n", err)
			os.Exit(1)
		}
		plane = pl
		fmt.Printf("telemetry: http://%s/metrics (also /varz, /healthz, /debug/pprof)\n", ts.Addr())
		defer ts.Close()
	}
	if plane != nil && *trace == "" && *srvP == "" {
		// Outside the serving suite, observe every system the run creates.
		// -trace claims the hook for the Tracer instead (full round log
		// beats live counters when both are asked for).
		pim.SetSystemHook(func(sys *pim.System) {
			sys.SetRecorder(obs.NewMonitor(plane.reg, sys.P()))
		})
		defer pim.SetSystemHook(nil)
	}

	if *cpuP != "" {
		f, err := os.Create(*cpuP)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memP != "" {
		defer func() {
			f, err := os.Create(*memP)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pimbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // flush the final allocation state before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "pimbench: memprofile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	if *bench != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		if err := runBenchSuite(sc, *bench); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *durbP != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		if err := runDurableSuite(sc, *conc, *depth, *dur, *walD, *durbP); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: durable: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *srdP != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		if err := runServeReadSuite(sc, *depth, *zipfS, *dur, *lngr, *srdP); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: serve-read: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *srvP != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		if err := runServeSuite(sc, *conc, *depth, *zipfS, *dur, *lngr, *srvP, plane); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: serve: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *swpP != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		if err := runServeSweep(sc, *conc, *depth, *zipfS, *dur, *swpP, *swpB, plane); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: serve-sweep: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *shdP != "" {
		sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
		var counts []int
		for _, s := range strings.Split(*shdC, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "pimbench: bad -shard-counts entry %q\n", s)
				os.Exit(1)
			}
			counts = append(counts, v)
		}
		if err := runShardSuite(sc, *conc, *depth, *zipfS, *dur, *lngr, counts, *shdP); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: shards: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.what)
		}
		return
	}
	want := map[string]bool{}
	if *exps != "" {
		for _, id := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	if *flts {
		// -faults alone selects just EF; with -exp it adds EF to the list.
		want["EF"] = true
	}

	var collector *traceCollector
	if *trace != "" {
		collector = &traceCollector{}
		pim.SetSystemHook(collector.hook)
		defer pim.SetSystemHook(nil)
	}

	sc := experiments.Scale{P: *p, N: *n, Batch: *batch, Seed: *seed}
	fmt.Printf("pimbench: P=%d n=%d batch=%d seed=%d\n\n", sc.P, sc.N, sc.Batch, sc.Seed)
	ran := 0
	var tables []experiments.Table
	for _, e := range registry {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		if collector != nil {
			collector.setExperiment(e.id)
		}
		start := time.Now()
		tb := e.run(sc)
		fmt.Print(tb.Format())
		fmt.Printf("(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		tables = append(tables, tb)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "pimbench: no experiment matched -exp; try -list")
		os.Exit(2)
	}
	if collector != nil {
		if err := collector.export(*trace); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d system(s) written to %s (analyze with pimtrie-trace)\n", len(collector.tracers), *trace)
	}
	if *jsonP != "" {
		f, err := os.Create(*jsonP)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %v\n", err)
			os.Exit(1)
		}
		if err := experiments.WriteResultsJSON(f, tables); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: writing results: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pimbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("results: %d table(s) written to %s\n", len(tables), *jsonP)
	}
}
