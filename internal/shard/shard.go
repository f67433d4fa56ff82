// Package shard is the scale-out layer: a Router that partitions the
// key space across N independent PIM-trie shards — each shard a full
// pimtrie.Index (its own simulated PIM system) fronted by its own
// serve.Server (its own epoch scheduler) — and scatter/gathers batched
// operations across them. One Index+Server deployment saturates a
// single serve scheduler; N shards behind a router multiply the epoch
// pipelines, which is the unlock for serving traffic far beyond one
// PIM system's capacity.
//
// Partitioning. Keys are routed by their first RouteBits bits: the key
// space splits into 2^RouteBits contiguous "slots" (lexicographic
// prefix ranges) and a live routing table maps slots to shards. The
// pluggable Partitioner picks the initial table — Contiguous for
// range partitioning, HashedPrefix for scattered skew-resistant
// placement. Keys shorter than RouteBits bits are replicated to every
// shard owning a slot that extends them, so LCP and prefix scans stay
// single-scatter correct; gathers deduplicate the replicas.
//
// Scatter/gather. Get/Insert/Delete split per shard and execute in
// parallel on the per-shard servers; Subtree/Subtrees fan out to every
// shard whose slot range can intersect the prefix and merge results in
// lexicographic key order; LCP broadcasts and takes the per-query
// maximum (see LCPAsync for why that is the exact answer). Answers are bit-identical to a single Index
// holding all keys (the oracle-equality tests assert exactly that).
//
// Skew. True to the paper's theme, the router watches per-shard load —
// the serving layer's per-prefix executed-key counters
// (serve.Options.PrefixLoadBits) aggregated per shard and scored with
// metrics.Imbalance — and when the max/mean imbalance crosses a
// threshold it migrates hot slots to cool shards: the slot's pairs are
// exported with a Subtree scan on the old owner, replayed with one
// Insert batch on the new owner, and the routing table flips under the
// router's epoch barrier (an exclusive lock all in-flight operations
// drain before migration touches anything), so reads never observe a
// half-moved range.
package shard

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
)

// Key and KV alias the index's key types.
type (
	Key = pimtrie.Key
	KV  = pimtrie.KV
)

// Migration configures the hot-range migration loop.
type Migration struct {
	// Enabled starts the background load-watcher goroutine.
	Enabled bool
	// Interval between load samples (default 100ms).
	Interval time.Duration
	// Threshold is the max/mean per-shard load imbalance that triggers
	// migration (default 1.3; metrics.Imbalance semantics, 1.0 = even).
	Threshold float64
	// MaxMoves bounds slots migrated per cycle (default 8).
	MaxMoves int
	// MinKeys is the minimum executed keys per interval before the
	// sample is trusted (default 256) — idle systems never migrate.
	MinKeys uint64
}

func (m Migration) withDefaults() Migration {
	if m.Interval <= 0 {
		m.Interval = 100 * time.Millisecond
	}
	if m.Threshold <= 1 {
		m.Threshold = 1.3
	}
	if m.MaxMoves <= 0 {
		m.MaxMoves = 8
	}
	if m.MinKeys == 0 {
		m.MinKeys = 256
	}
	return m
}

// Config configures a Router. Zero values select the noted defaults.
type Config struct {
	// Shards is the number of independent Index+Server shards (>= 1).
	Shards int
	// RouteBits sets the routing granularity: 2^RouteBits slots
	// (default 8, clamped to [1, 14]). More bits mean finer migration
	// units and larger routing tables.
	RouteBits int
	// Partitioner picks the initial slot assignment (default
	// HashedPrefix{} seeded from Index.Seed).
	Partitioner Partitioner
	// Modules is the number of PIM modules per shard (default 32).
	Modules int
	// Index configures every shard's index; Seed is offset per shard so
	// placement decisions stay independent.
	Index pimtrie.Options
	// Serve configures every shard's server. PrefixLoadBits is forced
	// to RouteBits (the migration policy needs slot-granular load) and
	// MetricLabels to shard="i". Durable must be nil: one serve.Durable
	// copied into every shard would have N executors appending to one
	// log, and recovery would replay every shard into one index.
	Serve serve.Options
	// Metrics, when non-nil, registers router instruments and per-shard
	// serving instruments (labelled shard="i") in the given registry.
	Metrics *metrics.Registry
	// Migration configures the hot-range migration loop.
	Migration Migration
}

// Router owns N shards and routes batched operations across them; see
// the package comment. Construct with New, stop with Close. All
// methods are safe for concurrent use; futures may be waited from any
// goroutine, any number of times.
type Router struct {
	cfg       Config
	routeBits int
	slots     int
	shards    []*shardNode
	met       *routerMetrics

	// mu and inflight together form the migration epoch barrier.
	// Submission holds mu shared only while reading the table and
	// handing sub-batches to the shard servers — never while waiting
	// for results — and registers the operation in inflight until a
	// per-operation resolver goroutine has gathered every sub-result.
	// Migration takes mu exclusively (parking new submissions) and then
	// drains inflight; outstanding operations resolve on the shard
	// servers' own schedule, independent of whether any client ever
	// waits on its future, so the drain cannot deadlock against a
	// caller pipelining many futures from one goroutine.
	mu       sync.RWMutex
	inflight sync.WaitGroup
	table    []int
	closed   bool

	// tableP is the copy-on-write published routing table behind the
	// lock-free snapshot read path: migrations install a fresh copy
	// (never mutating a published one), and a snapshot read re-loads the
	// pointer after probing — a changed pointer means a migration
	// completed mid-read and the whole call falls back to the barrier
	// path. closedA mirrors closed for the same lock-free readers.
	tableP  atomic.Pointer[[]int]
	closedA atomic.Bool

	snapKeys      atomic.Uint64 // keys served via shard-local snapshot reads
	snapFallbacks atomic.Uint64 // ReadSnapshot keys sent to the barrier path

	// migMu serializes migration cycles and guards the load snapshots.
	migMu     sync.Mutex
	prevLoad  [][]uint64
	loadBuf   [][]uint64
	lastImbal float64
	// skipNext marks the next load window as polluted: a migration's
	// own replay traffic (export scan, insert, delete) runs through the
	// shard servers and is counted by PrefixLoad, so the window that
	// contains it shows the destination shard spuriously hot. Acting on
	// that window ping-pongs slots; instead it only advances the
	// cumulative sample base.
	skipNext bool

	migration atomic.Uint64
	movedKeys atomic.Uint64

	stop     chan struct{}
	loopDone chan struct{}
}

type shardNode struct {
	id  int
	ix  *pimtrie.Index
	srv *serve.Server
}

// New builds the shards and starts the router. It panics on an invalid
// configuration (the same contract as pimtrie.New).
func New(cfg Config) *Router {
	if cfg.Shards < 1 {
		panic(fmt.Sprintf("shard: New requires at least one shard, got %d", cfg.Shards))
	}
	if cfg.RouteBits == 0 {
		cfg.RouteBits = 8
	}
	if cfg.RouteBits < 1 || cfg.RouteBits > 14 {
		panic(fmt.Sprintf("shard: RouteBits %d outside [1, 14]", cfg.RouteBits))
	}
	if cfg.Serve.Durable != nil {
		panic("shard: Serve.Durable is not supported (shards would share one write-ahead log)")
	}
	if cfg.Modules <= 0 {
		cfg.Modules = 32
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = HashedPrefix{Seed: cfg.Index.Seed}
	}
	cfg.Migration = cfg.Migration.withDefaults()
	slots := 1 << uint(cfg.RouteBits)
	table := cfg.Partitioner.Assign(slots, cfg.Shards)
	if len(table) != slots {
		panic(fmt.Sprintf("shard: partitioner %s returned %d slots, want %d", cfg.Partitioner.Name(), len(table), slots))
	}
	if err := validShards(table, cfg.Shards); err != nil {
		panic(err.Error())
	}
	r := &Router{
		cfg:       cfg,
		routeBits: cfg.RouteBits,
		slots:     slots,
		table:     table,
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	r.tableP.Store(&table)
	for i := 0; i < cfg.Shards; i++ {
		iopts := cfg.Index
		iopts.Seed = iopts.Seed*int64(cfg.Shards) + int64(i) + 1
		sopts := cfg.Serve
		sopts.PrefixLoadBits = cfg.RouteBits
		sopts.Metrics = cfg.Metrics
		if cfg.Metrics != nil {
			sopts.MetricLabels = append(append([]metrics.Label(nil), cfg.Serve.MetricLabels...),
				metrics.L("shard", strconv.Itoa(i)))
		}
		ix := pimtrie.New(cfg.Modules, iopts)
		r.shards = append(r.shards, &shardNode{id: i, ix: ix, srv: serve.NewServer(ix, sopts)})
	}
	if cfg.Metrics != nil {
		r.met = newRouterMetrics(cfg.Metrics, cfg.Shards)
		r.met.updateSlots(r.table, cfg.Shards)
	}
	if cfg.Migration.Enabled {
		go r.migrationLoop()
	} else {
		close(r.loopDone)
	}
	return r
}

// Close stops the migration loop, drains every shard's server and
// refuses further requests.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.closedA.Store(true)
	close(r.stop)
	r.mu.Unlock()
	<-r.loopDone
	// Let outstanding operations resolve before tearing the servers
	// down; new submissions already observe closed.
	r.inflight.Wait()
	for _, sh := range r.shards {
		sh.srv.Close()
	}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// Slots returns the routing-table size (2^RouteBits).
func (r *Router) Slots() int { return r.slots }

// Table returns a copy of the live slot -> shard routing table.
func (r *Router) Table() []int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int(nil), r.table...)
}

// Stats is a snapshot of router-level counters.
type Stats struct {
	Shards, Slots int
	// SlotsByShard counts owned slots per shard under the live table.
	SlotsByShard []int
	// KeysByShard is each shard's stored key count.
	KeysByShard []int
	// Migrations counts completed slot migrations; MovedKeys the pairs
	// they replayed.
	Migrations, MovedKeys uint64
	// LastImbalance is the max/mean per-shard load of the most recent
	// migration-policy sample (0 until the first sample).
	LastImbalance float64
	// SnapshotReads counts keys served wait-free from shard snapshots;
	// SnapshotFallbacks counts ReadSnapshot keys rerouted to the strong
	// path (recent write, unpublished snapshot, or mid-read migration).
	SnapshotReads, SnapshotFallbacks uint64
}

// Stats returns a router snapshot.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	st := Stats{
		Shards:       len(r.shards),
		Slots:        r.slots,
		SlotsByShard: make([]int, len(r.shards)),
		KeysByShard:  make([]int, len(r.shards)),
	}
	for _, sid := range r.table {
		st.SlotsByShard[sid]++
	}
	r.mu.RUnlock()
	for i, sh := range r.shards {
		st.KeysByShard[i] = sh.srv.KeyCount()
	}
	r.migMu.Lock()
	st.LastImbalance = r.lastImbal
	r.migMu.Unlock()
	st.Migrations, st.MovedKeys = r.migration.Load(), r.movedKeys.Load()
	st.SnapshotReads, st.SnapshotFallbacks = r.snapKeys.Load(), r.snapFallbacks.Load()
	return st
}

// ShardMetrics returns each shard's cumulative PIM Model cost counters
// as sampled after each shard's most recently committed epoch. Diff
// two snapshots per shard to cost a window; the deployment-level
// makespan of a window is the max over shards of its busy model time —
// shards are independent PIM systems running in parallel. For an exact
// window boundary, quiesce traffic (wait for outstanding futures)
// before snapshotting.
func (r *Router) ShardMetrics() []pimtrie.Metrics {
	out := make([]pimtrie.Metrics, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.srv.ModelMetrics()
	}
	return out
}

// ShardServerStats returns each shard's serving-layer counters.
func (r *Router) ShardServerStats() []serve.Stats {
	out := make([]serve.Stats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.srv.Stats()
	}
	return out
}

// keyRef locates one request key's answer inside the scatter plan.
type keyRef struct{ shard, pos int32 }

// scatter groups keys by owning shard under the read lock the caller
// already holds. When replicate is set, keys shorter than RouteBits
// are appended to every shard owning a slot extending them; the ref
// always points at the base-slot (primary) copy.
func (r *Router) scatter(keys []Key, values []uint64, replicate bool) (subKeys [][]Key, subVals [][]uint64, refs []keyRef, replicated int) {
	subKeys = make([][]Key, len(r.shards))
	if values != nil {
		subVals = make([][]uint64, len(r.shards))
	}
	refs = make([]keyRef, len(keys))
	push := func(sid int, k Key, i int) int32 {
		pos := int32(len(subKeys[sid]))
		subKeys[sid] = append(subKeys[sid], k)
		if values != nil {
			subVals[sid] = append(subVals[sid], values[i])
		}
		return pos
	}
	for i, k := range keys {
		lo, hi := slotRange(k, r.routeBits)
		primary := r.table[lo]
		refs[i] = keyRef{shard: int32(primary), pos: push(primary, k, i)}
		if !replicate || hi == lo+1 {
			continue
		}
		seen := uint64(1) << uint(primary) // shard count <= 64 enforced in New? replicate via map when larger
		for s := lo + 1; s < hi; s++ {
			sid := r.table[s]
			if len(r.shards) <= 64 {
				if seen&(1<<uint(sid)) != 0 {
					continue
				}
				seen |= 1 << uint(sid)
			} else if containsShard(subKeys[sid], k) {
				continue
			}
			push(sid, k, i)
			replicated++
		}
	}
	return subKeys, subVals, refs, replicated
}

// containsShard reports whether k was already appended to sub (the
// slow replica-dedupe path for > 64 shards; the key, if present, is
// the most recent append for this request index).
func containsShard(sub []Key, k Key) bool {
	return len(sub) > 0 && bitstr.Equal(sub[len(sub)-1], k)
}

// gather is the common future core: a one-shot completion latch. A
// dedicated resolver goroutine (see Router.launch) collects every
// shard sub-result and closes done; wait just blocks on the latch, so
// it is safe for one client goroutine to pipeline arbitrarily many
// futures before waiting on any of them.
type gather struct {
	done chan struct{}
	err  error
}

func (g *gather) wait() error {
	<-g.done
	return g.err
}

// settle resolves the gather immediately with err — used for
// submissions that never reach a shard (empty batches, closed router).
func (g *gather) settle(err error) {
	g.done = make(chan struct{})
	g.err = err
	close(g.done)
}

// begin takes the shared barrier lock and checks for Close. On true
// the lock is held and the submission MUST end with r.launch, which
// releases it.
func (r *Router) begin(g *gather) bool {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		g.settle(serve.ErrClosed)
		return false
	}
	return true
}

// launch completes a submission begun with begin: it registers the
// operation in the migration drain set, releases the shared barrier
// lock, and starts the resolver goroutine that folds the shard
// sub-futures into the gather. The inflight.Add happens before the
// RUnlock so a migration that acquires the exclusive lock afterwards
// cannot miss the operation when it drains. Resolution is driven by
// the shard servers' epoch schedule, never by the caller's Wait, so
// the drain cannot deadlock against a client pipelining many futures
// from one goroutine.
func (r *Router) launch(g *gather, resolve func() error) {
	g.done = make(chan struct{})
	r.inflight.Add(1)
	r.mu.RUnlock()
	go func() {
		g.err = resolve()
		close(g.done)
		r.inflight.Done()
	}()
}

// GetFuture is the handle of an in-flight Get batch.
type GetFuture struct {
	g     gather
	vals  []uint64
	found []bool
}

// Wait blocks until every shard answered: values[i], found[i] answer
// the i-th requested key.
func (f *GetFuture) Wait() ([]uint64, []bool, error) {
	err := f.g.wait()
	return f.vals, f.found, err
}

// GetAsync scatters an exact-lookup batch across the shards.
func (r *Router) GetAsync(keys ...Key) *GetFuture {
	f := &GetFuture{}
	if len(keys) == 0 {
		f.vals, f.found = []uint64{}, []bool{}
		f.g.settle(nil)
		return f
	}
	if !r.begin(&f.g) {
		return f
	}
	if r.met != nil {
		r.met.note(opGet, len(keys))
	}
	subKeys, _, refs, _ := r.scatter(keys, nil, false)
	futs := make([]*serve.GetFuture, len(r.shards))
	for sid, sk := range subKeys {
		if len(sk) > 0 {
			futs[sid] = r.shards[sid].srv.GetAsync(sk...)
		}
	}
	r.launch(&f.g, func() error {
		vals := make([][]uint64, len(futs))
		found := make([][]bool, len(futs))
		var firstErr error
		for sid, sf := range futs {
			if sf == nil {
				continue
			}
			v, fd, err := sf.Wait()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			vals[sid], found[sid] = v, fd
		}
		if firstErr != nil {
			return firstErr
		}
		f.vals = make([]uint64, len(refs))
		f.found = make([]bool, len(refs))
		for i, ref := range refs {
			f.vals[i] = vals[ref.shard][ref.pos]
			f.found[i] = found[ref.shard][ref.pos]
		}
		return nil
	})
	return f
}

// LCPFuture is the handle of an in-flight LCP batch.
type LCPFuture struct {
	g    gather
	lcps []int
}

// Wait blocks until every shard answered: lcps[i] answers the i-th
// requested key.
func (f *LCPFuture) Wait() ([]int, error) {
	err := f.g.wait()
	return f.lcps, err
}

// LCPAsync broadcasts a longest-common-prefix batch to every shard and
// takes the per-query maximum. Broadcast is required for correctness,
// not convenience: an answer longer than RouteBits comes from the
// query's own slot, but an answer of length L < RouteBits can be
// witnessed by a stored key diverging from the query at bit L — a key
// in a sibling slot that may live on any shard. Each shard's answer
// only ranges over genuinely stored keys (replicas are copies), so
// every answer is a lower bound of the true one and their maximum,
// over shards jointly holding every key, is exact.
func (r *Router) LCPAsync(keys ...Key) *LCPFuture {
	f := &LCPFuture{}
	if len(keys) == 0 {
		f.lcps = []int{}
		f.g.settle(nil)
		return f
	}
	if !r.begin(&f.g) {
		return f
	}
	if r.met != nil {
		r.met.note(opLCP, len(keys))
	}
	futs := make([]*serve.LCPFuture, len(r.shards))
	for sid, sh := range r.shards {
		futs[sid] = sh.srv.LCPAsync(keys...)
	}
	r.launch(&f.g, func() error {
		var firstErr error
		f.lcps = make([]int, len(keys))
		for _, sf := range futs {
			l, err := sf.Wait()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			for i, v := range l {
				if v > f.lcps[i] {
					f.lcps[i] = v
				}
			}
		}
		if firstErr != nil {
			f.lcps = nil
			return firstErr
		}
		return nil
	})
	return f
}

// InsertFuture is the handle of an in-flight Insert batch.
type InsertFuture struct{ g gather }

// Wait blocks until every shard committed the mutation.
func (f *InsertFuture) Wait() error { return f.g.wait() }

// InsertAsync scatters a mutation storing the given pairs; it panics
// if the slices disagree in length. Keys shorter than RouteBits are
// replicated to every shard covering their extensions so prefix
// queries stay single-scatter.
func (r *Router) InsertAsync(keys []Key, values []uint64) *InsertFuture {
	if len(keys) != len(values) {
		panic("shard: InsertAsync keys/values length mismatch")
	}
	f := &InsertFuture{}
	if len(keys) == 0 {
		f.g.settle(nil)
		return f
	}
	if !r.begin(&f.g) {
		return f
	}
	subKeys, subVals, _, replicated := r.scatter(keys, values, true)
	if r.met != nil {
		r.met.note(opInsert, len(keys))
		r.met.replicated.Add(uint64(replicated))
	}
	futs := make([]*serve.InsertFuture, len(r.shards))
	for sid, sk := range subKeys {
		if len(sk) > 0 {
			futs[sid] = r.shards[sid].srv.InsertAsync(sk, subVals[sid])
		}
	}
	r.launch(&f.g, func() error {
		var firstErr error
		for _, sf := range futs {
			if sf == nil {
				continue
			}
			if err := sf.Wait(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
	return f
}

// DeleteFuture is the handle of an in-flight Delete batch.
type DeleteFuture struct {
	g     gather
	found []bool
}

// Wait blocks until every shard committed: found[i] reports whether
// the i-th requested key was present.
func (f *DeleteFuture) Wait() ([]bool, error) {
	err := f.g.wait()
	return f.found, err
}

// DeleteAsync scatters a mutation removing the given keys, including
// every replica of short keys; found comes from the primary copy.
func (r *Router) DeleteAsync(keys ...Key) *DeleteFuture {
	f := &DeleteFuture{}
	if len(keys) == 0 {
		f.found = []bool{}
		f.g.settle(nil)
		return f
	}
	if !r.begin(&f.g) {
		return f
	}
	if r.met != nil {
		r.met.note(opDelete, len(keys))
	}
	subKeys, _, refs, _ := r.scatter(keys, nil, true)
	futs := make([]*serve.DeleteFuture, len(r.shards))
	for sid, sk := range subKeys {
		if len(sk) > 0 {
			futs[sid] = r.shards[sid].srv.DeleteAsync(sk...)
		}
	}
	r.launch(&f.g, func() error {
		per := make([][]bool, len(futs))
		var firstErr error
		for sid, sf := range futs {
			if sf == nil {
				continue
			}
			fd, err := sf.Wait()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			per[sid] = fd
		}
		if firstErr != nil {
			return firstErr
		}
		f.found = make([]bool, len(refs))
		for i, ref := range refs {
			f.found[i] = per[ref.shard][ref.pos]
		}
		return nil
	})
	return f
}

// SubtreeFuture is the handle of an in-flight prefix-scan batch.
type SubtreeFuture struct {
	g       gather
	results [][]KV
}

// Wait blocks until every shard answered: results[i] holds the stored
// pairs extending the i-th requested prefix, merged across shards in
// lexicographic key order with replicas deduplicated.
func (f *SubtreeFuture) Wait() ([][]KV, error) {
	err := f.g.wait()
	return f.results, err
}

// SubtreeAsync fans each prefix out to every shard whose slot range
// can intersect it and merges the sorted per-shard answers.
func (r *Router) SubtreeAsync(prefixes ...Key) *SubtreeFuture {
	f := &SubtreeFuture{}
	if len(prefixes) == 0 {
		f.results = [][]KV{}
		f.g.settle(nil)
		return f
	}
	if !r.begin(&f.g) {
		return f
	}
	subKeys := make([][]Key, len(r.shards))
	shardRefs := make([][]keyRef, len(prefixes)) // per prefix: one ref per shard asked
	fanout := 0
	for i, p := range prefixes {
		lo, hi := slotRange(p, r.routeBits)
		var seen uint64
		for s := lo; s < hi; s++ {
			sid := r.table[s]
			if len(r.shards) <= 64 {
				if seen&(1<<uint(sid)) != 0 {
					continue
				}
				seen |= 1 << uint(sid)
			} else if n := len(shardRefs[i]); n > 0 && hasShard(shardRefs[i], sid) {
				continue
			}
			shardRefs[i] = append(shardRefs[i], keyRef{shard: int32(sid), pos: int32(len(subKeys[sid]))})
			subKeys[sid] = append(subKeys[sid], p)
			fanout++
		}
	}
	if r.met != nil {
		r.met.note(opSubtree, len(prefixes))
		r.met.fanout.Add(uint64(fanout))
	}
	futs := make([]*serve.SubtreeFuture, len(r.shards))
	for sid, sk := range subKeys {
		if len(sk) > 0 {
			futs[sid] = r.shards[sid].srv.SubtreeAsync(sk...)
		}
	}
	r.launch(&f.g, func() error {
		per := make([][][]KV, len(futs))
		var firstErr error
		for sid, sf := range futs {
			if sf == nil {
				continue
			}
			kvs, err := sf.Wait()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			per[sid] = kvs
		}
		if firstErr != nil {
			return firstErr
		}
		f.results = make([][]KV, len(prefixes))
		parts := make([][]KV, 0, len(r.shards))
		for i := range prefixes {
			parts = parts[:0]
			for _, ref := range shardRefs[i] {
				parts = append(parts, per[ref.shard][ref.pos])
			}
			f.results[i] = mergeKVs(parts)
		}
		return nil
	})
	return f
}

func hasShard(refs []keyRef, sid int) bool {
	for _, ref := range refs {
		if int(ref.shard) == sid {
			return true
		}
	}
	return false
}

// mergeKVs k-way merges sorted per-shard scan results into one sorted
// slice, dropping duplicate keys (replicated short keys appear on
// every covering shard with identical values — the router keeps them
// consistent).
func mergeKVs(parts [][]KV) []KV {
	live := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	switch len(live) {
	case 0:
		return []KV{}
	case 1:
		return live[0]
	}
	out := make([]KV, 0, total)
	pos := make([]int, len(live))
	for {
		best := -1
		for i, p := range live {
			if pos[i] >= len(p) {
				continue
			}
			if best < 0 || bitstr.Compare(p[pos[i]].Key, live[best][pos[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		kv := live[best][pos[best]]
		out = append(out, kv)
		// Advance every list past this key, swallowing replicas.
		for i, p := range live {
			for pos[i] < len(p) && bitstr.Equal(p[pos[i]].Key, kv.Key) {
				pos[i]++
			}
		}
	}
}

// Get is the blocking form of GetAsync.
func (r *Router) Get(keys []Key) ([]uint64, []bool, error) {
	return r.GetAsync(keys...).Wait()
}

// LCP is the blocking form of LCPAsync.
func (r *Router) LCP(keys []Key) ([]int, error) {
	return r.LCPAsync(keys...).Wait()
}

// Insert is the blocking form of InsertAsync.
func (r *Router) Insert(keys []Key, values []uint64) error {
	return r.InsertAsync(keys, values).Wait()
}

// Delete is the blocking form of DeleteAsync.
func (r *Router) Delete(keys []Key) ([]bool, error) {
	return r.DeleteAsync(keys...).Wait()
}

// Subtree is the blocking single-prefix scan.
func (r *Router) Subtree(prefix Key) ([]KV, error) {
	res, err := r.SubtreeAsync(prefix).Wait()
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// Subtrees is the blocking form of SubtreeAsync.
func (r *Router) Subtrees(prefixes []Key) ([][]KV, error) {
	return r.SubtreeAsync(prefixes...).Wait()
}

// Len returns the number of stored keys across all shards as of each
// shard's last committed epoch. Replicated short keys are counted once
// per covering shard, so this may exceed the logical key count by the
// replica count — use Subtree(Empty) for exact logical contents.
func (r *Router) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.srv.KeyCount()
	}
	return n
}
