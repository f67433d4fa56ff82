package main

// batch-skew: one client goroutine sends a fixed, seed-determined
// sequence of large batches to one non-recoverable Index. All time goes
// to the index's own layers (core, pim, querytrie, hashing, bitstr); no
// serving, logging or snapshot code runs. Because the work is fixed, the
// model metrics of a pass repeat exactly for a seed.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/trie"
	"github.com/pimlab/pimtrie/internal/workload"
)

const (
	bsBatch = 2048 // keys per batch
	// bsGroups is the number of insert/delete groups in one pass. A
	// group is bsHalf query batches, an Insert of bsBatch fresh keys,
	// bsHalf more query batches (which also draw the fresh keys), and a
	// Delete of the same keys, so the index size is the same after
	// every group.
	bsGroups = 12
	bsHalf   = 5
	// bsZipf is the exponent of the hot query draws.
	bsZipf = 1.1
	// Tail percentiles, chosen so at least minBeyond samples lie beyond
	// them at half the batch rate seen on a 2-core host (a 20 s window
	// there runs about 4 passes: 480 read and 96 write batches).
	bsReadTail  = 0.95
	bsWriteTail = 0.8
)

// bsStep is one batch of the pass and the answers the oracle expects.
type bsStep struct {
	op        string // one of indexOps
	keys      []key
	vals      []uint64 // insert values
	wantLCP   []int
	wantVals  []uint64
	wantFound []bool
	wantKVs   [][]kv
}

// bsPass builds the pass for a seed and computes every expected answer
// on a host trie. Query batch q reads with op lcp, get, subtree by q%3.
// Within a half group, Zipf-hot draws alternate with attacks: Zipf at
// positions 0, 2 and 4, a range attack (a batch of distinct keys packed
// below one stored key) at 1, a point attack (one stored key repeated)
// at 3. Zipf batches, the fastest kind, are thus three fifths of the
// reads rather than half, which keeps the read median inside their
// latencies instead of on the edge between them and the attacks.
func bsPass(seed int64, keys []key, vals []uint64) []bsStep {
	g := workload.New(seed + 1)
	r := rand.New(rand.NewSource(seed + 2))
	oracle := trie.New()
	for i, k := range keys {
		oracle.Insert(k, vals[i])
	}
	var steps []bsStep
	q := 0
	query := func(fresh []key, pos int) {
		var batch []key
		hot := pos%2 == 0
		switch {
		case hot:
			batch = g.Zipf(keys, bsBatch, bsZipf)
			for i := range fresh {
				if i%4 == 0 {
					batch[r.Intn(len(batch))] = fresh[i]
				}
			}
		case pos == 1:
			base := g.PointAttack(keys, 1)[0]
			for _, t := range g.FixedLen(bsBatch, 16) {
				batch = append(batch, base.Concat(t))
			}
		default:
			batch = g.PointAttack(keys, bsBatch)
		}
		s := bsStep{op: indexOps[q%3], keys: batch}
		switch s.op {
		case "lcp":
			for _, k := range batch {
				s.wantLCP = append(s.wantLCP, oracle.LCPLen(k))
			}
		case "get":
			for _, k := range batch {
				v, ok := oracle.Get(k)
				s.wantVals = append(s.wantVals, v)
				s.wantFound = append(s.wantFound, ok)
			}
		case "subtree":
			for i, k := range batch {
				if hot { // hot draws scan just above a key
					batch[i] = k.Prefix(k.Len() - r.Intn(8))
				}
				s.wantKVs = append(s.wantKVs, oracle.SubtreeKeys(batch[i]))
			}
		}
		steps = append(steps, s)
		q++
	}
	for grp := 0; grp < bsGroups; grp++ {
		fresh := make([]key, bsBatch)
		fvals := make([]uint64, bsBatch)
		for i := range fresh {
			fresh[i] = freshKey(seed, 0, uint64(grp*bsBatch+i))
			fvals[i] = valueOf(fresh[i])
		}
		for pos := range bsHalf {
			query(nil, pos)
		}
		steps = append(steps, bsStep{op: "insert", keys: fresh, vals: fvals})
		for i, k := range fresh {
			oracle.Insert(k, fvals[i])
		}
		for pos := range bsHalf {
			query(fresh, pos)
		}
		steps = append(steps, bsStep{op: "delete", keys: fresh})
		for _, k := range fresh {
			oracle.Delete(k)
		}
	}
	return steps
}

// bsClient executes the pass on the index and checks the answers.
type bsClient struct {
	ix    *pimtrie.Index
	steps []bsStep
	tr    *tracer
	rec   *phaseRecorder
	buf   *spanBuf

	checks tally
	// Measured-window accounting; busy is time spent inside index calls.
	measure       bool
	busy          time.Duration
	keys          int64
	opNs, opKeys  map[string]int64
	reads, writes latencies
	calls         int64
}

func (d *bsClient) do(i int) {
	s := &d.steps[i]
	var id int64
	if d.tr != nil {
		id = d.tr.nextID.Add(1)
		d.rec.callID, d.rec.callReq = id, d.calls
	}
	var (
		lcps  []int
		vals  []uint64
		found []bool
		kvs   [][]kv
	)
	start := time.Now()
	switch s.op {
	case "lcp":
		lcps = d.ix.LCP(s.keys)
	case "get":
		vals, found = d.ix.Get(s.keys)
	case "subtree":
		kvs = d.ix.Subtrees(s.keys)
	case "insert":
		d.ix.Insert(s.keys, s.vals)
	case "delete":
		found = d.ix.Delete(s.keys)
	}
	end := time.Now()
	if d.tr != nil {
		d.tr.call(d.buf, "index."+s.op, id, d.calls, int64(start.Sub(d.tr.epoch)), int64(end.Sub(d.tr.epoch)))
		d.rec.callID = 0
	}
	d.calls++
	if d.measure {
		el := end.Sub(start)
		d.busy += el
		d.keys += int64(len(s.keys))
		d.opNs[s.op] += int64(el)
		d.opKeys[s.op] += int64(len(s.keys))
		if s.op == "insert" || s.op == "delete" {
			d.writes.add(el)
		} else {
			d.reads.add(el)
		}
	}
	d.check(s, lcps, vals, found, kvs)
}

func (d *bsClient) check(s *bsStep, lcps []int, vals []uint64, found []bool, kvs [][]kv) {
	t := &d.checks
	switch s.op {
	case "lcp":
		for i, want := range s.wantLCP {
			t.check(i < len(lcps) && lcps[i] == want, func() string {
				return fmt.Sprintf("lcp[%d] of %d answers: want %d", i, len(lcps), want)
			})
		}
	case "get":
		t.checkGets("get", vals, found, s.wantVals, s.wantFound)
	case "subtree":
		for i, want := range s.wantKVs {
			t.check(i < len(kvs) && sameKVs(kvs[i], want), func() string {
				return fmt.Sprintf("subtree[%d] of %d answers: want %d pairs", i, len(kvs), len(want))
			})
		}
	case "insert":
		t.attempted += int64(len(s.keys)) // Insert reports no per-key outcome; later reads check it
	case "delete":
		for i := range s.keys {
			t.check(i < len(found) && found[i], func() string {
				return fmt.Sprintf("delete[%d] of %d answers: inserted key not found", i, len(found))
			})
		}
	}
}

func sameKVs(a, b []kv) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value || !bitstr.Equal(a[i].Key, b[i].Key) {
			return false
		}
	}
	return true
}

func runBatchSkew(c config, tr *tracer, setups int) (*outcome, error) {
	out := newOutcome()
	keys, vals := baseKeys(c.seed)
	steps := bsPass(c.seed, keys, vals)

	var ix *pimtrie.Index
	var times []float64
	for range setups {
		ix = nil
		runtime.GC()
		start := time.Now()
		ix = pimtrie.New(modules, pimtrie.Options{Seed: c.seed})
		ix.Load(keys, vals)
		times = append(times, time.Since(start).Seconds())
	}
	out.e2e["setup_s"] = median(times)

	d := &bsClient{ix: ix, steps: steps, tr: tr, opNs: map[string]int64{}, opKeys: map[string]int64{}}
	if tr != nil {
		d.rec = tr.recorder()
		d.buf = tr.buf()
		ix.SetRecorder(d.rec)
	}
	for i := range steps { // warm-up pass
		d.do(i)
	}
	runtime.GC()

	// The window runs whole passes until the calls have taken the
	// requested time, so every run measures the same mix of batches;
	// the model metrics are those of the first pass in the window.
	d.measure = true
	if tr != nil {
		tr.begin()
	}
	rt0 := readRuntime()
	smp := startSampler()
	wall := time.Now()
	m0 := ix.Metrics()
	var model pimtrie.Metrics
	var passKeys int64
	for n := 0; n < len(steps) || n%len(steps) != 0 || d.busy < c.seconds; n++ {
		d.do(n % len(steps))
		if n == len(steps)-1 {
			model = ix.Metrics().Sub(m0)
			passKeys = d.keys
		}
	}
	wallS := time.Since(wall).Seconds()
	heap := smp.stop()
	rt1 := readRuntime()
	if tr != nil {
		tr.end()
	}
	out.checks = d.checks
	out.opsPerSec = float64(d.keys) / d.busy.Seconds()

	rp50, rtail, err := d.reads.summarize(bsReadTail)
	if err != nil {
		return nil, fmt.Errorf("read latency: %w", err)
	}
	wp50, wtail, err := d.writes.summarize(bsWriteTail)
	if err != nil {
		return nil, fmt.Errorf("write latency: %w", err)
	}
	out.note("window %.2fs wall, %.2fs in index calls; %d read and %d write batches of %d keys; tails p%g read, p%g write",
		wallS, d.busy.Seconds(), len(d.reads), len(d.writes), bsBatch, 100*bsReadTail, 100*bsWriteTail)
	e := out.e2e
	e["ops_per_s"] = out.opsPerSec
	e["read_p50_ms"], e["read_tail_ms"] = rp50, rtail
	e["write_p50_ms"], e["write_tail_ms"] = wp50, wtail
	e["heap_peak_mb"] = heap
	e["ok_frac"] = okFrac(out.checks)
	modelMetrics(e, model, int64(len(steps)), passKeys)

	if tr != nil {
		for _, op := range indexOps {
			out.layer["index."+op+"_us_per_key"] = float64(d.opNs[op]) / 1e3 / float64(d.opKeys[op])
		}
		phaseLayer(out, tr, float64(d.busy), d.keys)
		runtimeLayer(out, rt0, rt1, wallS, d.keys)
	}
	return out, nil
}

// okFrac is the share of checked operations whose answer was right.
func okFrac(t tally) float64 { return 1 - float64(t.failed)/float64(t.attempted) }

// modelMetrics sets the PIM Model metrics of m, a cost incurred by
// batches index calls carrying keys keys. The IO balance is P·IOTime /
// IOWords: 1 when every round spread its IO evenly over the modules, P
// when each round's IO went to one module.
func modelMetrics(e map[string]float64, m pimtrie.Metrics, batches, keys int64) {
	e["model_rounds_per_batch"] = float64(m.Rounds) / float64(batches)
	e["model_io_words_per_key"] = float64(m.IOWords) / float64(keys)
	e["model_pim_work_per_key"] = float64(m.PIMWork) / float64(keys)
	e["model_io_balance"] = modules * float64(m.IOTime) / float64(m.IOWords)
}

// runtimeLayer sets the runtime metrics of a window of wallS seconds
// that completed keys keys.
func runtimeLayer(out *outcome, a, b runtimeStats, wallS float64, keys int64) {
	out.layer["runtime.gc_cycles_per_s"] = float64(b.gcCycles-a.gcCycles) / wallS
	out.layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
	out.layer["runtime.alloc_mb_per_kkey"] = float64(b.allocBytes-a.allocBytes) / (1 << 20) / (float64(keys) / 1000)
}
