package main

// serve-durable: one recoverable Index behind serve.Server with a
// write-ahead log (interval fsync, default checkpoint cadence). Two
// closed-loop clients each keep sdWindow single-key requests in flight:
// half strong Gets of loaded keys, a quarter Inserts of fresh keys, a
// quarter Deletes of the client's oldest acknowledged fresh keys, so
// the index size stays steady. Latency comes from the epoch scheduler,
// coalescing, completion delivery, host-shadow upkeep, WAL appends and
// fsyncs, and checkpoint flattens.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
	"github.com/pimlab/pimtrie/internal/wal"
)

const (
	sdClients = 2
	sdWindow  = 32 // requests each client keeps in flight
	sdZipf    = 1.1
	// sdTail is the read and write tail percentile; a 20 s window on a
	// 2-core host yields over 10^5 reads and 5·10^4 writes.
	sdTail = 0.999
)

type sdKind int

const (
	sdGet sdKind = iota
	sdInsert
	sdDelete
)

var sdKindName = [...]string{"get", "insert", "delete"}

// sdRequest is one request a client has in flight.
type sdRequest struct {
	kind sdKind
	key  key
	want uint64 // expected value of a Get
	sent time.Time
	id   int64
	get  *serve.GetFuture
	ins  *serve.InsertFuture
	del  *serve.DeleteFuture
}

// sdClient is one closed-loop client. It waits for its requests in the
// order it sent them.
type sdClient struct {
	id    uint64
	seed  int64
	srv   *serve.Server
	keys  []key
	vals  []uint64
	r     *rand.Rand
	zipf  *rand.Zipf
	perm  []int
	fresh uint64 // fresh keys drawn so far
	acked []key  // acknowledged fresh keys, oldest first
	ring  []*sdRequest
	tr    *tracer
	buf   *spanBuf

	checks        tally
	reads, writes latencies
	done          int64
}

func newSDClient(id uint64, seed int64, srv *serve.Server, keys []key, vals []uint64, perm []int, tr *tracer) *sdClient {
	r := rand.New(rand.NewSource(seed + int64(id)*7919))
	c := &sdClient{id: id, seed: seed, srv: srv, keys: keys, vals: vals, r: r, perm: perm, tr: tr,
		zipf: rand.NewZipf(r, sdZipf, 1, uint64(len(keys)-1))}
	if tr != nil {
		c.buf = tr.buf()
	}
	return c
}

func (c *sdClient) send() {
	q := &sdRequest{}
	switch c.r.Intn(4) {
	case 0, 1:
		i := c.perm[c.zipf.Uint64()]
		q.kind, q.key, q.want = sdGet, c.keys[i], c.vals[i]
	case 2:
		q.kind = sdInsert
	case 3:
		q.kind = sdDelete
		if len(c.acked) == 0 {
			q.kind = sdInsert
		}
	}
	if q.kind == sdInsert {
		q.key = freshKey(c.seed, 1+c.id, c.fresh)
		c.fresh++
	}
	if q.kind == sdDelete {
		q.key = c.acked[0]
		c.acked = c.acked[1:]
	}
	if c.tr != nil {
		q.id = c.tr.nextID.Add(1)
	}
	q.sent = time.Now()
	switch q.kind {
	case sdGet:
		q.get = c.srv.GetAsync(q.key)
	case sdInsert:
		q.ins = c.srv.InsertAsync([]key{q.key}, []uint64{valueOf(q.key)})
	case sdDelete:
		q.del = c.srv.DeleteAsync(q.key)
	}
	c.ring = append(c.ring, q)
}

// complete waits for the oldest request, checks it and, when measuring,
// records its latency.
func (c *sdClient) complete(measure bool) {
	q := c.ring[0]
	c.ring = c.ring[1:]
	var (
		ok    bool
		vals  []uint64
		found []bool
		err   error
	)
	switch q.kind {
	case sdGet:
		vals, found, err = q.get.Wait()
		ok = err == nil && len(found) == 1 && found[0] && vals[0] == q.want
	case sdInsert:
		err = q.ins.Wait()
		ok = err == nil
		if ok {
			c.acked = append(c.acked, q.key)
		}
	case sdDelete:
		found, err = q.del.Wait()
		ok = err == nil && len(found) == 1 && found[0]
	}
	end := time.Now()
	c.checks.check(ok, func() string {
		return fmt.Sprintf("%s: got %v %v %v; a get wants its loaded value %d, a delete an acknowledged key", sdKindName[q.kind], vals, found, err, q.want)
	})
	if !measure {
		return
	}
	c.done++
	if q.kind == sdGet {
		c.reads.add(end.Sub(q.sent))
	} else {
		c.writes.add(end.Sub(q.sent))
	}
	if c.tr != nil {
		c.tr.call(c.buf, "client."+sdKindName[q.kind], q.id, int64(c.id)<<40|q.id,
			int64(q.sent.Sub(c.tr.epoch)), int64(end.Sub(c.tr.epoch)))
	}
}

// phase keeps the window full until deadline, then drains it.
func (c *sdClient) phase(deadline time.Time, measure bool) {
	for len(c.ring) < sdWindow {
		c.send()
	}
	for time.Now().Before(deadline) {
		c.complete(measure)
		c.send()
	}
	for len(c.ring) > 0 {
		c.complete(measure)
	}
}

// runClients runs every client's phase concurrently and returns when
// all have drained.
func runClients(clients []*sdClient, d time.Duration, measure bool) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *sdClient) {
			defer wg.Done()
			cl.phase(deadline, measure)
		}(cl)
	}
	wg.Wait()
}

// sdSystem is a durable server and what it owns.
type sdSystem struct {
	ix  *pimtrie.Index
	srv *serve.Server
	dir string
}

func sdSetup(c config, keys []key, vals []uint64, reg *metrics.Registry, rec *phaseRecorder, n int) (*sdSystem, time.Duration, error) {
	dir := filepath.Join(c.dir, fmt.Sprintf("wal-%d-%d", os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	runtime.GC()
	start := time.Now()
	ix := pimtrie.New(modules, pimtrie.Options{Seed: c.seed, Recoverable: true})
	ix.Load(keys, vals)
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncInterval, Metrics: reg})
	if err != nil {
		return nil, 0, fmt.Errorf("open wal: %w", err)
	}
	if rec != nil {
		ix.SetRecorder(rec)
	}
	srv := serve.NewServer(ix, serve.Options{Durable: &serve.Durable{Log: log, OwnLog: true}, Metrics: reg})
	return &sdSystem{ix: ix, srv: srv, dir: dir}, time.Since(start), nil
}

func (s *sdSystem) close() error {
	s.srv.Close()
	err := s.srv.DurabilityErr()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

func runServeDurable(c config, tr *tracer, setups int) (*outcome, error) {
	out := newOutcome()
	keys, vals := baseKeys(c.seed)
	perm := rand.New(rand.NewSource(c.seed + 3)).Perm(len(keys))

	var (
		reg   *metrics.Registry
		rec   *phaseRecorder
		sys   *sdSystem
		times []float64
	)
	if tr != nil {
		reg = metrics.NewRegistry()
		rec = tr.recorder()
	}
	for i := range setups {
		if sys != nil {
			if err := sys.close(); err != nil {
				return nil, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		if sys, d, err = sdSetup(c, keys, vals, reg, rec, i); err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	out.e2e["setup_s"] = median(times)
	defer sys.close() // on error paths; the success path checks the error below

	var clients []*sdClient
	for id := range sdClients {
		clients = append(clients, newSDClient(uint64(id), c.seed, sys.srv, keys, vals, perm, tr))
	}
	runClients(clients, warmup, false)
	runtime.GC()

	read := func() serveState {
		return readServe(reg, [][]metrics.Label{nil}, []serve.Stats{sys.srv.Stats()}, []pimtrie.Metrics{sys.srv.ModelMetrics()})
	}
	if tr != nil {
		tr.begin()
	}
	rt0 := readRuntime()
	w0 := sys.srv.WAL().Stats()
	s0 := read()
	smp := startSampler()
	runClients(clients, c.seconds, true)
	heap := smp.stop()
	s1 := read()
	w1 := sys.srv.WAL().Stats()
	rt1 := readRuntime()
	if tr != nil {
		tr.end()
	}
	if err := sys.close(); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	wallS := s1.at.Sub(s0.at).Seconds()

	var reads, writes latencies
	var done int64
	for _, cl := range clients {
		out.checks.add(cl.checks)
		reads = append(reads, cl.reads...)
		writes = append(writes, cl.writes...)
		done += cl.done
	}
	out.opsPerSec = float64(done) / wallS
	rp50, rtail, err := reads.summarize(sdTail)
	if err != nil {
		return nil, fmt.Errorf("read latency: %w", err)
	}
	wp50, wtail, err := writes.summarize(sdTail)
	if err != nil {
		return nil, fmt.Errorf("write latency: %w", err)
	}
	out.note("window %.2fs; %d reads, %d writes; tails p%g; wal fsync policy %s, checkpoint every 256 write epochs",
		wallS, len(reads), len(writes), 100*sdTail, wal.SyncInterval)
	e := out.e2e
	e["ops_per_s"] = out.opsPerSec
	e["read_p50_ms"], e["read_tail_ms"] = rp50, rtail
	e["write_p50_ms"], e["write_tail_ms"] = wp50, wtail
	e["heap_peak_mb"] = heap
	e["ok_frac"] = okFrac(out.checks)
	serveModel(e, s0, s1)

	if tr != nil {
		phaseLayer(out, tr, 1e9*histDelta(s0.execute, s1.execute).Sum, int64(s1.executed()-s0.executed()))
		serveLayer(out, s0, s1)
		l := out.layer
		writeKeys := s1.KeysExecuted[serve.OpInsert] + s1.KeysExecuted[serve.OpDelete] -
			s0.KeysExecuted[serve.OpInsert] - s0.KeysExecuted[serve.OpDelete]
		l["wal.fsyncs_per_s"] = float64(w1.Fsyncs-w0.Fsyncs) / wallS
		l["wal.bytes_per_key"] = float64(w1.Bytes-w0.Bytes) / float64(writeKeys)
		l["wal.appends_per_write_epoch"] = float64(w1.Appends-w0.Appends) / float64(s1.WriteEpochs-s0.WriteEpochs)
		l["wal.checkpoints"] = float64(s1.ckptWrites - s0.ckptWrites)
		ckpt := histDelta(s0.ckpt, s1.ckpt)
		l["wal.checkpoint_ms_p50"] = 1e3 * ckpt.Quantile(0.5)
		l["wal.checkpoint_ms_max"] = 1e3 * ckpt.Quantile(1)
		runtimeLayer(out, rt0, rt1, wallS, done)
		cl := clients[0]
		stream := make([]key, 1<<16)
		for i := range stream {
			stream[i] = keys[perm[cl.zipf.Uint64()]]
		}
		l["trie.flatten_ms"], l["trie.probe_ns_per_key"] = trieLayer(sys.ix, c.seed, stream)
	}
	return out, nil
}

// trieLayer times Snapshot on an idle recoverable index right after a
// write, which forces a fresh flatten, and the snapshot's GetBatch over
// a read stream.
func trieLayer(ix *pimtrie.Index, seed int64, stream []key) (flattenMs, probeNs float64) {
	var times []float64
	var snap *pimtrie.Snapshot
	for i := range 3 {
		k := freshKey(seed, 99, uint64(i))
		ix.Insert([]key{k}, []uint64{valueOf(k)})
		start := time.Now()
		snap = ix.Snapshot()
		times = append(times, float64(time.Since(start))/1e6)
	}
	const batch = 1024
	vals := make([]uint64, batch)
	found := make([]bool, batch)
	start := time.Now()
	n := 0
	for ; n+batch <= len(stream); n += batch {
		snap.GetBatch(stream[n:n+batch], vals, found)
	}
	return median(times), float64(time.Since(start)) / float64(n)
}
