package main

// serve-snapshot: a two-shard Router over recoverable indexes with the
// static Contiguous partitioner, no migration, and snapshot reads on.
// Client A sends closed-loop single-key ReadSnapshot Gets drawn from a
// Zipf distribution; client B is an open-loop writer at a fixed rate
// well below write saturation (near 20 writes/s on a 2-core host the
// writer falls behind and the reader collapses), sending bursts of
// three back-to-back overwrites to one shard at a time. Each write stores the
// value its key already holds, so every read has one right answer, and
// write keys come from the cold half of the Zipf ranking, so they
// rarely push a hot read onto the strong path. Reads never enter an
// index; every write epoch re-flattens its shard for the next snapshot.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/pim"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/shard"
)

const (
	ssShards    = 2
	ssZipf      = 1.1
	ssWriteRate = 10 // writes per second, in bursts of ssBurst
	ssBurst     = 3
	ssLoadBatch = 1 << 14
	// Tail percentiles: a 20 s window on a 2-core host yields about
	// 6·10^6 reads and exactly 201 writes (67 bursts).
	ssReadTail  = 0.9999
	ssWriteTail = 0.95
)

// ssReader is client A.
type ssReader struct {
	r      *shard.Router
	keys   []key
	vals   []uint64
	perm   []int
	zipf   *rand.Zipf
	tr     *tracer
	buf    *spanBuf
	checks tally
	lat    latencies
}

func (a *ssReader) run(deadline time.Time, measure bool) {
	ks := make([]key, 1)
	var n int64
	for time.Now().Before(deadline) {
		i := a.perm[a.zipf.Uint64()]
		ks[0] = a.keys[i]
		start := time.Now()
		vals, found, err := a.r.GetWith(shard.ReadSnapshot, ks)
		end := time.Now()
		ok := err == nil && len(found) == 1 && found[0] && vals[0] == a.vals[i]
		a.checks.check(ok, func() string {
			return fmt.Sprintf("snapshot get: got %v %v %v, want %d", vals, found, err, a.vals[i])
		})
		if !measure {
			continue
		}
		a.lat.add(end.Sub(start))
		// Millions of reads a second would make one span each too
		// many to keep in memory; the traced run keeps every 64th.
		if n++; a.tr != nil && n%64 == 0 {
			a.tr.call(a.buf, "client.get", a.tr.nextID.Add(1), n, int64(start.Sub(a.tr.epoch)), int64(end.Sub(a.tr.epoch)))
		}
	}
}

// ssWriter is client B.
type ssWriter struct {
	r      *shard.Router
	keys   []key
	vals   []uint64
	perm   []int
	rng    *rand.Rand
	tr     *tracer
	buf    *spanBuf
	checks tally
	lat    latencies
	late   latencies
}

// coldKey draws a key from the cold half of the Zipf ranking that the
// Contiguous partitioner places on shard sh (by the key's first bit).
func (b *ssWriter) coldKey(sh int) int {
	for {
		i := b.perm[len(b.perm)/2+b.rng.Intn(len(b.perm)/2)]
		if int(b.keys[i].BitAt(0)) == sh {
			return i
		}
	}
}

// run sends a burst of ssBurst overwrites to one shard on a fixed
// schedule, alternating the shards. Inside a burst each write goes out
// when the previous one is acknowledged, so the later ones meet the
// snapshot flatten their predecessor's epoch started: write latency,
// timed from the burst's due time, carries the publish cost.
func (b *ssWriter) run(deadline time.Time, measure bool) {
	sched := openLoop{start: time.Now(), interval: ssBurst * time.Second / ssWriteRate}
	for {
		due := sched.due()
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		sh := sched.n % ssShards
		sent := time.Now()
		var done time.Time
		for range ssBurst {
			i := b.coldKey(sh)
			err := b.r.Insert([]key{b.keys[i]}, []uint64{b.vals[i]})
			done = time.Now()
			b.checks.check(err == nil, func() string { return fmt.Sprintf("overwrite: %v", err) })
			if !measure {
				continue
			}
			b.lat.add(done.Sub(due))
			if b.tr != nil {
				b.tr.call(b.buf, "client.insert", b.tr.nextID.Add(1), int64(sched.n), int64(due.Sub(b.tr.epoch)), int64(done.Sub(b.tr.epoch)))
			}
		}
		if _, late := sched.record(sent, done); measure {
			b.late.add(late)
		}
	}
}

func ssSetup(c config, keys []key, vals []uint64, reg *metrics.Registry, tr *tracer) (*shard.Router, time.Duration, error) {
	runtime.GC()
	if tr != nil {
		pim.SetSystemHook(func(s *pim.System) { s.SetRecorder(tr.recorder()) })
		defer pim.SetSystemHook(nil)
	}
	start := time.Now()
	r := shard.New(shard.Config{
		Shards:      ssShards,
		Partitioner: shard.Contiguous{},
		Modules:     modules,
		Index:       pimtrie.Options{Seed: c.seed, Recoverable: true},
		Serve:       serve.Options{SnapshotReads: true},
		Metrics:     reg,
	})
	for i := 0; i < len(keys); i += ssLoadBatch {
		j := min(i+ssLoadBatch, len(keys))
		if err := r.Insert(keys[i:j], vals[i:j]); err != nil {
			r.Close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
	}
	return r, time.Since(start), nil
}

func runServeSnapshot(c config, tr *tracer, setups int) (*outcome, error) {
	out := newOutcome()
	keys, vals := baseKeys(c.seed)
	rng := rand.New(rand.NewSource(c.seed + 4))
	perm := rng.Perm(len(keys))

	var (
		reg   *metrics.Registry
		r     *shard.Router
		times []float64
	)
	if tr != nil {
		reg = metrics.NewRegistry()
	}
	for range setups {
		if r != nil {
			r.Close()
		}
		var (
			d   time.Duration
			err error
		)
		if r, d, err = ssSetup(c, keys, vals, reg, tr); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	out.e2e["setup_s"] = median(times)
	defer r.Close()

	a := &ssReader{r: r, keys: keys, vals: vals, perm: perm, zipf: rand.NewZipf(rng, ssZipf, 1, uint64(len(keys)-1)), tr: tr}
	b := &ssWriter{r: r, keys: keys, vals: vals, perm: perm, rng: rand.New(rand.NewSource(c.seed + 5)), tr: tr}
	if tr != nil {
		a.buf, b.buf = tr.buf(), tr.buf()
	}
	both := func(d time.Duration, measure bool) {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); a.run(deadline, measure) }()
		go func() { defer wg.Done(); b.run(deadline, measure) }()
		wg.Wait()
	}
	both(warmup, false)
	runtime.GC()

	var labelSets [][]metrics.Label
	for i := range ssShards {
		labelSets = append(labelSets, []metrics.Label{metrics.L("shard", strconv.Itoa(i))})
	}
	read := func() (serveState, shard.Stats, []serve.Stats, routerCalls) {
		st := r.ShardServerStats()
		return readServe(reg, labelSets, st, r.ShardMetrics()), r.Stats(), st, readRouterCalls(reg)
	}
	// In the traced run the sampler also watches each shard's published
	// snapshot: its epoch stamp changes once per publish.
	var (
		publishes, ageSamples int
		ageSum                float64
		lastEpoch             = make([]float64, ssShards)
		probes                []func()
	)
	if reg != nil {
		probes = append(probes, func() {
			for i, ls := range labelSets {
				if e := reg.Gauge("pimtrie_serve_snapshot_epoch", "", ls...).Value(); e != lastEpoch[i] {
					publishes++
					lastEpoch[i] = e
				}
				ageSum += reg.Gauge("pimtrie_serve_snapshot_age_epochs", "", ls...).Value()
				ageSamples++
			}
		})
		for i, ls := range labelSets {
			lastEpoch[i] = reg.Gauge("pimtrie_serve_snapshot_epoch", "", ls...).Value()
		}
	}
	if tr != nil {
		tr.begin()
	}
	rt0 := readRuntime()
	s0, r0, st0, rc0 := read()
	smp := startSampler(probes...)
	both(c.seconds, true)
	heap := smp.stop()
	s1, r1, st1, rc1 := read()
	rt1 := readRuntime()
	if tr != nil {
		tr.end()
	}
	wallS := s1.at.Sub(s0.at).Seconds()

	out.checks.add(a.checks)
	out.checks.add(b.checks)
	if r1.Migrations != 0 {
		out.checks.check(false, func() string { return fmt.Sprintf("%d slot migrations with migration off", r1.Migrations) })
	}
	done := len(a.lat) + len(b.lat)
	out.opsPerSec = float64(done) / wallS
	rp50, rtail, err := a.lat.summarize(ssReadTail)
	if err != nil {
		return nil, fmt.Errorf("read latency: %w", err)
	}
	wp50, wtail, err := b.lat.summarize(ssWriteTail)
	if err != nil {
		return nil, fmt.Errorf("write latency: %w", err)
	}
	out.note("window %.2fs; %d reads, %d writes sent open-loop at %d/s; tails p%g read, p%g write",
		wallS, len(a.lat), len(b.lat), ssWriteRate, 100*ssReadTail, 100*ssWriteTail)
	e := out.e2e
	e["ops_per_s"] = out.opsPerSec
	e["read_p50_ms"], e["read_tail_ms"] = rp50, rtail
	e["write_p50_ms"], e["write_tail_ms"] = wp50, wtail
	e["heap_peak_mb"] = heap
	e["ok_frac"] = okFrac(out.checks)
	serveModel(e, s0, s1)

	if tr != nil {
		r.Close() // the shard executors have stopped recording
		phaseLayer(out, tr, 1e9*histDelta(s0.execute, s1.execute).Sum, int64(s1.executed()-s0.executed()))
		serveLayer(out, s0, s1)
		l := out.layer
		if snap := s1.SnapshotKeys - s0.SnapshotKeys; snap > 0 {
			l["serve.snapshot_hit_frac"] = float64(snap) / float64(snap+s1.SnapshotFallbacks-s0.SnapshotFallbacks)
		}
		if ageSamples > 0 {
			l["serve.snapshot_age_epochs"] = ageSum / float64(ageSamples)
		}
		if publishes > 0 {
			l["serve.publish_interval_ms"] = 1e3 * wallS * ssShards / float64(publishes)
		}
		l["shard.keys_per_call"] = float64(rc1.keys-rc0.keys) / float64(rc1.calls-rc0.calls)
		load := make([]int64, ssShards)
		for i := range load {
			load[i] = int64(st1[i].KeysExecuted[serve.OpGet]+st1[i].KeysExecuted[serve.OpInsert]+st1[i].SnapshotKeys) -
				int64(st0[i].KeysExecuted[serve.OpGet]+st0[i].KeysExecuted[serve.OpInsert]+st0[i].SnapshotKeys)
		}
		l["shard.load_imbalance"], _ = metrics.Imbalance(load)
		if n := (r1.SnapshotReads + r1.SnapshotFallbacks) - (r0.SnapshotReads + r0.SnapshotFallbacks); n > 0 {
			l["shard.snapshot_fallback_frac"] = float64(r1.SnapshotFallbacks-r0.SnapshotFallbacks) / float64(n)
		}
		l["shard.migrations"] = float64(r1.Migrations)
		sort.Float64s(b.late)
		l["gen.late_p99_ms"] = quantile(b.late, 0.99)
		l["gen.sent_per_s"] = float64(len(b.lat)) / wallS
		runtimeLayer(out, rt0, rt1, wallS, int64(done))
		// Every publish flattens one shard; time it on a standalone
		// index holding shard 0's keys (first bit 0 under Contiguous),
		// probed with the reads that went to that shard.
		var k0 []key
		var v0 []uint64
		for i, k := range keys {
			if k.BitAt(0) == 0 {
				k0, v0 = append(k0, k), append(v0, vals[i])
			}
		}
		ix := pimtrie.New(modules, pimtrie.Options{Seed: c.seed, Recoverable: true})
		ix.Load(k0, v0)
		var stream []key
		for len(stream) < 1<<16 {
			if k := keys[perm[a.zipf.Uint64()]]; k.BitAt(0) == 0 {
				stream = append(stream, k)
			}
		}
		l["trie.flatten_ms"], l["trie.probe_ns_per_key"] = trieLayer(ix, c.seed, stream)
	}
	return out, nil
}

// routerCalls counts the router's batch calls and the keys they carried.
type routerCalls struct{ calls, keys uint64 }

func readRouterCalls(reg *metrics.Registry) (rc routerCalls) {
	if reg == nil {
		return rc
	}
	for _, op := range []string{"get", "insert"} {
		rc.calls += reg.Counter("pimtrie_router_requests_total", "", metrics.L("op", op)).Value()
		rc.keys += reg.Counter("pimtrie_router_keys_total", "", metrics.L("op", op)).Value()
	}
	return rc
}
