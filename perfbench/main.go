// Command perfbench is the repository benchmark. It runs one workload
// against the index, the serving layer or the shard router for a fixed
// time, checks every answer against a host oracle, and prints its
// metrics; the last line of standard output is one JSON object.
//
//	perfbench --workload batch-skew --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced and then with the
// index Recorder, the metrics registry and the runtime sampler
// attached, and reports the per-layer metrics of the traced run plus
// the tracing overhead; the spans are written to --dir. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRuns is how many times an untraced run builds its system; it
// reports the median build time and measures on the last build.
const setupRuns = 3

// warmup is run before every measured window and excluded from it.
const warmup = 2 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string
}

// outcome is what one run of a workload measured.
type outcome struct {
	e2e       map[string]float64 // untraced runs
	layer     map[string]float64 // traced runs
	opsPerSec float64
	checks    tally
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// A runner runs one workload; tr is nil for an untraced run.
type runner func(c config, tr *tracer, setups int) (*outcome, error)

var workloads = map[string]runner{
	"batch-skew":     runBatchSkew,
	"serve-durable":  runServeDurable,
	"serve-snapshot": runServeSnapshot,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		c       config
		seconds int
		trace   int
	)
	flag.StringVar(&c.workload, "workload", "", "batch-skew, serve-durable or serve-snapshot")
	flag.Int64Var(&c.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&c.dir, "dir", ".bench_build", "directory for the write-ahead log and the span file")
	flag.Parse()
	w, ok := workloads[c.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", c.workload, seconds, trace)
		flag.Usage()
		return 2
	}
	c.seconds = time.Duration(seconds) * time.Second
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		c.workload, c.seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var (
		out *outcome
		err error
	)
	if trace == 0 {
		out, err = w(c, nil, setupRuns)
	} else {
		out, err = tracedRun(c, w)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	names, values := endToEnd, out.e2e
	if trace == 1 {
		names, values = perLayer, out.layer
	}
	for _, n := range out.notes {
		fmt.Println("#", n)
	}
	res := result{
		Correct:   out.checks.failed == 0,
		Attempted: out.checks.attempted,
		Failed:    out.checks.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range names {
		v, ok := values[m.name]
		if !ok && trace == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", c.workload, m.name)
			return 1
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
		fmt.Printf("# %-32s %14.6g %s\n", m.name, v, m.unit)
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was checked")
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n", res.Failed, res.Attempted, out.checks.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// tracedRun measures the workload untraced and then traced, each on a
// freshly built system, reports the traced run's per-layer metrics and
// how much tracing cost, and writes the spans.
func tracedRun(c config, w runner) (*outcome, error) {
	plain, err := w(c, nil, 1)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	out, err := w(c, tr, 1)
	if err != nil {
		return nil, err
	}
	out.checks.add(plain.checks)
	out.layer["trace.overhead_frac"] = 1 - out.opsPerSec/plain.opsPerSec
	path := filepath.Join(c.dir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", c.workload, c.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.note("spans written to %s", path)
	return out, nil
}

// median returns the median of a few set-up times.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
