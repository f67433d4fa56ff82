package serve

// The epoch scheduler. A single batcher goroutine drains the request
// queues into epoch plans — a write epoch is a maximal same-op run of
// the write FIFO, a read epoch groups one deduplicated sub-batch per
// read op — and runs the host-side preparation (Index.PrepareBatch) for
// each sub-batch. A single executor goroutine consumes plans in
// formation order and runs them on the index, so the committed epoch
// order IS the formation order, and while the executor drives epoch k's
// PIM rounds the batcher is already hashing and sorting epoch k+1: the
// two-stage host/PIM pipeline.
//
// Consistency: the index is only touched by the executor, epochs never
// interleave, and reads and writes never share an epoch — so every
// response equals a serial replay of the committed epoch order.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie"
)

// call is one admitted request.
type call struct {
	op     Op
	keys   []Key
	values []uint64 // OpInsert only
	fut    *future
	enq    time.Time
	slots  []int     // read epochs: per key, index into the sub-batch's unique keys
	rec    *OpRecord // history record, nil unless recording
}

// readBatch is one read epoch's deduplicated sub-batch for a single op.
type readBatch struct {
	calls []*call
	uniq  []Key
	prep  *pimtrie.PreparedBatch
}

// epochPlan is one formed epoch, handed from batcher to executor.
type epochPlan struct {
	write bool
	// Read epoch: sub-batches indexed by OpGet/OpLCP/OpSubtree.
	reads [3]readBatch
	// Write epoch: calls in arrival order and their concatenation.
	op     Op
	calls  []*call
	keys   []Key
	values []uint64
	prep   *pimtrie.PreparedBatch
	// stamp is a write epoch's position in the write order: the number
	// of write epochs formed up to and including this one.
	stamp uint64
}

// Server fronts a pimtrie.Index with the concurrent serving layer; see
// the package comment. Construct with NewServer, stop with Close.
type Server struct {
	ix   *pimtrie.Index
	opts Options

	mu           sync.Mutex
	readQ        [3][]*call // per read op FIFO
	writeQ       []*call    // mixed insert/delete FIFO, arrival order
	closed       bool
	formedWrites uint64 // write epochs formed so far
	hist         []*EpochRecord
	stats        Stats
	idBuf        []byte   // scratch for appendKeyID, reused under mu
	prefixLoad   []uint64 // per-prefix executed keys (Options.PrefixLoadBits)

	kick     chan struct{} // batcher wake-up, capacity 1
	closedCh chan struct{}
	plans    chan *epochPlan
	demand   chan struct{} // executor's request for the next plan
	compCh   chan []*call  // batched completion chunks to the completers
	wg       sync.WaitGroup

	// Snapshot read path (Options.SnapshotReads); see snapshot.go.
	snapFilter    *writeFilter              // recent-writes filter, nil when disabled
	pub           atomic.Pointer[snapState] // published (flat, stamp) pair
	committedW    atomic.Uint64             // write epochs committed on the index
	snapDirty     chan struct{}             // publisher wake-up, capacity 1
	snapKeys      atomic.Uint64             // keys served from the snapshot
	snapFallbacks atomic.Uint64             // ReadSnapshot keys bounced to the epoch path

	met *serveMetrics // nil unless Options.Metrics is set
	dur *durableState // nil unless Options.Durable is set

	// health is the post-epoch Index.Health sample behind Server.Health;
	// written only by the goroutine that owns the index. keyCount and
	// model are sampled on the same schedule for Server.KeyCount and
	// Server.ModelMetrics.
	healthMu sync.Mutex
	health   pimtrie.Health
	keyCount int
	model    pimtrie.Metrics
}

// NewServer starts the serving layer over ix. The Server owns all
// index execution from now on: direct Index batch calls concurrent with
// a live Server panic by design (the index's single-flight guard).
func NewServer(ix *pimtrie.Index, opts Options) *Server {
	s := &Server{
		ix:       ix,
		opts:     opts.withDefaults(),
		kick:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	if s.opts.PrefixLoadBits > 0 {
		s.prefixLoad = make([]uint64, 1<<uint(s.opts.PrefixLoadBits))
	}
	if s.opts.Metrics != nil {
		s.met = newServeMetrics(s.opts.Metrics, s.opts.MetricLabels)
	}
	if s.opts.Durable != nil {
		s.dur = newDurableState(ix, *s.opts.Durable, s.opts.Metrics, s.opts.MetricLabels)
	}
	if s.opts.SnapshotReads {
		if !ix.Health().Recoverable {
			panic("serve: Options.SnapshotReads requires a recoverable index (set pimtrie.Options.Recoverable: snapshots flatten the host shadow)")
		}
		s.snapFilter = newWriteFilter(s.opts.SnapshotFilterBits)
		s.snapDirty = make(chan struct{}, 1)
		s.publishSnapshot() // a snapshot is live before the first request
		s.wg.Add(1)
		go s.publisher()
	}
	s.sampleHealth() // baseline before the scheduler goroutines exist
	// Formation is demand-paced: the executor emits one demand token
	// when it starts an epoch, and the batcher forms exactly one plan
	// per token. Epoch k+1 is therefore formed (and host-prepared,
	// overlapping k's PIM rounds) from everything queued at the moment
	// k starts — one full wave of arrivals. Forming any earlier
	// fragments waves into small epochs that then persist: each epoch's
	// completers resubmit together, so epoch sizes are self-reproducing
	// and the pipeline would inherit its startup fragmentation forever.
	s.plans = make(chan *epochPlan)
	s.demand = make(chan struct{}, 1)
	s.demand <- struct{}{}
	s.wg.Add(1)
	go s.executor()
	// Completion delivery is batched: the executor hands each epoch's
	// resolved calls to the completers in chunks instead of settling
	// every future inline, so result distribution stops scaling the
	// executor's critical path with the client count.
	s.compCh = make(chan []*call, completionQueue)
	for i := 0; i < completionWorkers; i++ {
		s.wg.Add(1)
		go s.completer()
	}
	s.wg.Add(1)
	go s.batcher()
	return s
}

// Close drains every queued request, waits for the final epoch to
// commit, and stops the scheduler goroutines. On a durable server it
// then drains the background checkpointer and fsyncs the WAL, so
// every acknowledged write is on stable storage when Close returns
// regardless of sync policy. Requests submitted after Close fail with
// ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closedCh)
	}
	s.mu.Unlock()
	s.kickBatcher()
	s.wg.Wait()
	if s.dur != nil {
		s.dur.shutdown()
	}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.SnapshotKeys = s.snapKeys.Load()
	st.SnapshotFallbacks = s.snapFallbacks.Load()
	return st
}

// History returns the committed epoch records (Options.RecordHistory).
// Call after Close; records of uncommitted epochs have unfilled
// responses until their futures resolve.
func (s *Server) History() []*EpochRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist
}

func (s *Server) kickBatcher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// submit admits one request: resolve trivially or enqueue for the
// batcher.
func (s *Server) submit(op Op, keys []Key, values []uint64) *future {
	f := newFuture()
	if len(keys) == 0 {
		s.resolveEmpty(op, f)
		return f
	}
	c := &call{op: op, keys: keys, values: values, fut: f, enq: time.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		f.fail(ErrClosed)
		return f
	}
	s.stats.Requests[op]++
	s.stats.KeysRequested[op] += uint64(len(keys))
	if s.met != nil {
		s.met.requests[op].Inc()
		s.met.keysReq[op].Add(uint64(len(keys)))
	}
	if op.isRead() {
		s.readQ[op] = append(s.readQ[op], c)
	} else {
		s.writeQ = append(s.writeQ, c)
	}
	if s.met != nil {
		s.met.queueDepth.Add(1)
	}
	s.mu.Unlock()
	s.kickBatcher()
	return f
}

func (s *Server) resolveEmpty(op Op, f *future) {
	switch op {
	case OpGet:
		f.vals, f.found = []uint64{}, []bool{}
	case OpLCP:
		f.ints = []int{}
	case OpSubtree:
		f.kvs = [][]KV{}
	case OpDelete:
		f.found = []bool{}
	}
	f.settle()
}

// batcher is pipeline stage A: await executor demand, form the next
// epoch, run its host-side preparation, hand it to the executor.
func (s *Server) batcher() {
	defer s.wg.Done()
	for {
		// Once closed, awaitDemand stops pacing and the batcher just
		// drains the queues.
		s.awaitDemand()
		plan := s.nextPlan()
		if plan == nil {
			close(s.plans)
			return
		}
		s.prepare(plan)
		s.plans <- plan
	}
}

// awaitDemand blocks until the executor asks for the next plan or the
// server is closed (drain mode: form as fast as the unbuffered plans
// channel allows).
func (s *Server) awaitDemand() {
	select {
	case <-s.demand:
	case <-s.closedCh:
	}
}

// executor is pipeline stage B: run each plan on the index in formation
// order. Demand for plan k+1 is signalled as k starts, so the batcher
// forms and prepares k+1 while k's PIM rounds run.
func (s *Server) executor() {
	defer s.wg.Done()
	for plan := range s.plans {
		select {
		case s.demand <- struct{}{}:
		default:
		}
		s.execute(plan)
	}
	// The last epoch has committed: stop the completers and the snapshot
	// publisher (whose final publish then captures the fully drained
	// state).
	close(s.compCh)
	if s.snapDirty != nil {
		close(s.snapDirty)
	}
}

// Batched completion delivery: chunks of this many resolved calls wake
// one completer each, amortizing the scheduler handoff; epochs at or
// below inlineCompletion calls settle inline — a chunk handoff would
// cost more than it saves.
const (
	completionWorkers = 2
	completionQueue   = 16
	completionChunk   = 32
	inlineCompletion  = 4
)

// completer settles chunks of resolved calls off the executor's
// critical path.
func (s *Server) completer() {
	defer s.wg.Done()
	for chunk := range s.compCh {
		for _, c := range chunk {
			s.finish(c)
		}
	}
}

// finish resolves one call exactly once; latency is observed only by
// the resolution winner, keeping observations == admitted requests.
func (s *Server) finish(c *call) {
	if c.fut.state.CompareAndSwap(futPending, futSettled) {
		s.observeLatency(c)
		close(c.fut.done)
	}
}

// finishErr is finish with an error.
func (s *Server) finishErr(c *call, err error) {
	if c.fut.state.CompareAndSwap(futPending, futSettled) {
		c.fut.err = err
		s.observeLatency(c)
		close(c.fut.done)
	}
}

// deliver resolves an epoch's calls: tiny deliveries settle inline,
// larger ones are chunked onto the completion workers so the executor
// can move to the next epoch while futures resolve.
func (s *Server) deliver(calls []*call) {
	if len(calls) <= inlineCompletion {
		for _, c := range calls {
			s.finish(c)
		}
		return
	}
	for len(calls) > 0 {
		n := completionChunk
		if n > len(calls) {
			n = len(calls)
		}
		chunk := calls[:n:n]
		calls = calls[n:]
		if s.met != nil {
			keys := 0
			for _, c := range chunk {
				keys += len(c.keys)
			}
			s.met.compChunks.Inc()
			s.met.compChunkKeys.Observe(float64(keys))
		}
		s.compCh <- chunk
	}
}

// pendingLocked reports queued requests and the arrival time of the
// oldest one.
func (s *Server) pendingLocked() (n int, oldest time.Time) {
	first := true
	note := func(q []*call) {
		n += len(q)
		if len(q) > 0 && (first || q[0].enq.Before(oldest)) {
			oldest, first = q[0].enq, false
		}
	}
	for op := range s.readQ {
		note(s.readQ[op])
	}
	note(s.writeQ)
	return n, oldest
}

// fullLocked reports whether any queue already holds MaxBatch keys —
// a full epoch's worth — which cuts the linger short.
func (s *Server) fullLocked() bool {
	count := func(q []*call) int {
		n := 0
		for _, c := range q {
			n += len(c.keys)
		}
		return n
	}
	for op := range s.readQ {
		if count(s.readQ[op]) >= s.opts.MaxBatch {
			return true
		}
	}
	return count(s.writeQ) >= s.opts.MaxBatch
}

// nextPlan blocks until requests are pending (respecting MaxLinger),
// then forms the next epoch. It returns nil when the server is
// closed and fully drained.
func (s *Server) nextPlan() *epochPlan {
	for {
		s.mu.Lock()
		n, oldest := s.pendingLocked()
		if n == 0 {
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			select {
			case <-s.kick:
			case <-s.closedCh:
			}
			continue
		}
		if linger := s.opts.MaxLinger; linger > 0 && !s.closed && !s.fullLocked() {
			wait := linger - time.Since(oldest)
			if wait > 0 {
				s.mu.Unlock()
				t := time.NewTimer(wait)
				select {
				case <-s.kick: // new arrival: a queue may be full now
				case <-t.C:
				case <-s.closedCh:
				}
				t.Stop()
				continue
			}
		}
		plan := s.formLocked()
		s.mu.Unlock()
		return plan
	}
}

// formLocked removes the next epoch's requests from the queues. Side
// choice is oldest-first between the read side and the write side, so
// neither starves.
func (s *Server) formLocked() *epochPlan {
	var oldestRead, oldestWrite time.Time
	haveRead := false
	for op := range s.readQ {
		if q := s.readQ[op]; len(q) > 0 && (!haveRead || q[0].enq.Before(oldestRead)) {
			oldestRead, haveRead = q[0].enq, true
		}
	}
	haveWrite := len(s.writeQ) > 0
	if haveWrite {
		oldestWrite = s.writeQ[0].enq
	}
	if haveWrite && (!haveRead || oldestWrite.Before(oldestRead)) {
		return s.formWriteLocked()
	}
	return s.formReadLocked()
}

// formWriteLocked takes the maximal same-op prefix of the write FIFO,
// capped at MaxBatch keys (always at least one request).
func (s *Server) formWriteLocked() *epochPlan {
	op := s.writeQ[0].op
	plan := &epochPlan{write: true, op: op}
	total := 0
	i := 0
	for ; i < len(s.writeQ) && s.writeQ[i].op == op; i++ {
		c := s.writeQ[i]
		if total > 0 && total+len(c.keys) > s.opts.MaxBatch {
			break
		}
		total += len(c.keys)
		plan.calls = append(plan.calls, c)
		plan.keys = append(plan.keys, c.keys...)
		if op == OpInsert {
			plan.values = append(plan.values, c.values...)
		}
	}
	s.writeQ = append(s.writeQ[:0], s.writeQ[i:]...)
	s.formedWrites++
	plan.stamp = s.formedWrites
	s.stats.WriteEpochs++
	s.notePrefixLoadLocked(plan.keys)
	s.noteExecutedLocked(op, len(plan.keys))
	if s.met != nil {
		s.met.writeEpochs.Inc()
		s.met.epochKeys.Observe(float64(len(plan.keys)))
		s.met.noteFormed(plan.calls, time.Now())
	}
	if s.opts.RecordHistory {
		rec := &EpochRecord{Write: true}
		for _, c := range plan.calls {
			c.rec = &OpRecord{Op: op, Keys: c.keys, Values: c.values}
			rec.Ops = append(rec.Ops, c.rec)
		}
		s.hist = append(s.hist, rec)
	}
	return plan
}

// formReadLocked drains up to MaxBatch unique keys per read op into one
// epoch, deduplicating identical keys within each sub-batch
// (singleflight): every request records, per key, the slot of its
// unique representative.
func (s *Server) formReadLocked() *epochPlan {
	plan := &epochPlan{}
	var rec *EpochRecord
	if s.opts.RecordHistory {
		rec = &EpochRecord{}
	}
	for op := 0; op < 3; op++ {
		q := s.readQ[op]
		if len(q) == 0 {
			continue
		}
		rb := &plan.reads[op]
		slot := make(map[string]int, len(q))
		// Slab the per-call slot slices: one allocation per sub-batch.
		nkeys := 0
		for _, c := range q {
			nkeys += len(c.keys)
		}
		slab := make([]int, nkeys)
		i := 0
		for ; i < len(q); i++ {
			c := q[i]
			if len(rb.uniq) > 0 && len(rb.uniq)+len(c.keys) > s.opts.MaxBatch {
				break // admit calls whole; keys of one call stay in one epoch
			}
			c.slots = slab[:len(c.keys):len(c.keys)]
			slab = slab[len(c.keys):]
			for j, k := range c.keys {
				s.idBuf = appendKeyID(s.idBuf[:0], k)
				si, ok := slot[string(s.idBuf)]
				if !ok {
					si = len(rb.uniq)
					slot[string(s.idBuf)] = si
					rb.uniq = append(rb.uniq, k)
				}
				c.slots[j] = si
			}
			rb.calls = append(rb.calls, c)
			if rec != nil {
				c.rec = &OpRecord{Op: Op(op), Keys: c.keys}
				rec.Ops = append(rec.Ops, c.rec)
			}
		}
		s.readQ[op] = append(q[:0], q[i:]...)
		s.notePrefixLoadLocked(rb.uniq)
		s.noteExecutedLocked(Op(op), len(rb.uniq))
		admitted := 0
		for _, c := range rb.calls {
			admitted += len(c.keys)
		}
		s.stats.DedupedKeys += uint64(admitted - len(rb.uniq))
		if s.met != nil {
			s.met.deduped.Add(uint64(admitted - len(rb.uniq)))
			s.met.epochKeys.Observe(float64(len(rb.uniq)))
			s.met.noteFormed(rb.calls, time.Now())
		}
	}
	s.stats.ReadEpochs++
	if s.met != nil {
		s.met.readEpochs.Inc()
		s.met.updateDedupRatio()
	}
	if rec != nil {
		s.hist = append(s.hist, rec)
	}
	return plan
}

// notePrefixLoadLocked counts an epoch's unique executed keys into the
// per-prefix load buckets. Caller holds s.mu. The buckets are atomics
// because the lock-free snapshot read path accounts its served keys
// into the same array without taking the lock (noteSnapshotServed).
func (s *Server) notePrefixLoadLocked(keys []Key) {
	if s.prefixLoad == nil {
		return
	}
	for _, k := range keys {
		atomic.AddUint64(&s.prefixLoad[k.PrefixIndex(s.opts.PrefixLoadBits)], 1)
	}
}

// PrefixLoad copies the cumulative per-prefix executed-key counters
// into dst (allocating when dst is too short) and returns it, along
// with the number of epochs committed so far — the consumer diffs two
// snapshots to get a per-interval, per-key-range load profile. Bucket i
// counts unique keys whose first PrefixLoadBits bits index i
// (bitstr.PrefixIndex order: buckets are contiguous lexicographic key
// ranges). It returns (nil, epochs) when Options.PrefixLoadBits is 0.
// Safe to call from any goroutine while the server runs.
func (s *Server) PrefixLoad(dst []uint64) ([]uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epochs := s.stats.ReadEpochs + s.stats.WriteEpochs
	if s.prefixLoad == nil {
		return nil, epochs
	}
	if cap(dst) < len(s.prefixLoad) {
		dst = make([]uint64, len(s.prefixLoad))
	}
	dst = dst[:len(s.prefixLoad)]
	for i := range s.prefixLoad {
		dst[i] = atomic.LoadUint64(&s.prefixLoad[i])
	}
	return dst, epochs
}

func (s *Server) noteExecutedLocked(op Op, uniq int) {
	s.stats.KeysExecuted[op] += uint64(uniq)
	if uniq > s.stats.MaxEpochKeys {
		s.stats.MaxEpochKeys = uniq
	}
	if s.met != nil {
		s.met.keysExec[op].Add(uint64(uniq))
	}
}

// prepare runs the host-side phase-A preparation of every sub-batch in
// the plan — the work this layer overlaps with the previous epoch's PIM
// rounds. PrepareBatch is the one Index method that is safe to call
// while another batch executes.
func (s *Server) prepare(plan *epochPlan) {
	if s.met != nil {
		start := time.Now()
		s.met.stageBusy[stagePrepare].Set(1)
		defer func() {
			s.met.stageBusy[stagePrepare].Set(0)
			s.met.prepareSec.Observe(time.Since(start).Seconds())
		}()
	}
	if plan.write {
		plan.prep = s.ix.PrepareBatch(plan.keys)
		return
	}
	for op := range plan.reads {
		if rb := &plan.reads[op]; len(rb.uniq) > 0 {
			rb.prep = s.ix.PrepareBatch(rb.uniq)
		}
	}
}

// execute commits one epoch on the index and distributes results. An
// index panic (e.g. an unrecoverable injected fault) fails the epoch's
// futures instead of killing the scheduler.
func (s *Server) execute(plan *epochPlan) {
	defer s.sampleHealth()
	if s.met != nil {
		start := time.Now()
		s.met.stageBusy[stageExecute].Set(1)
		defer func() {
			s.met.stageBusy[stageExecute].Set(0)
			s.met.executeSec.Observe(time.Since(start).Seconds())
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			// Fail whatever the epoch had not already resolved. finishErr
			// is CAS-guarded, so futures a completion worker settled
			// before the panic (earlier sub-batches of this epoch) are
			// left alone instead of being double-closed.
			err := fmt.Errorf("serve: index failure: %v", r)
			if plan.write {
				for _, c := range plan.calls {
					s.finishErr(c, err)
				}
				return
			}
			for op := range plan.reads {
				for _, c := range plan.reads[op].calls {
					s.finishErr(c, err)
				}
			}
		}
	}()
	if plan.write {
		s.executeWrite(plan)
		return
	}
	s.executeRead(plan)
}

func (s *Server) executeWrite(plan *epochPlan) {
	var found []bool
	switch plan.op {
	case OpInsert:
		s.ix.InsertPrepared(plan.prep, plan.values)
	case OpDelete:
		found = s.ix.DeletePrepared(plan.prep)
	}
	// Snapshot-path ordering: stamp the recent-writes filter, THEN
	// advance the committed-write counter, THEN (below) acknowledge.
	// A reader that observed this write as acked therefore finds its
	// filter stamp already in place, so it either falls back to the
	// epoch path or reads a snapshot that contains the write — never a
	// stale snapshot answer for an acknowledged key.
	if s.snapFilter != nil {
		for _, k := range plan.keys {
			s.snapFilter.note(keyHash(k), plan.stamp)
		}
		s.committedW.Store(plan.stamp)
		select {
		case s.snapDirty <- struct{}{}:
		default: // publisher already pending; it reloads the counter
		}
	}
	// Log-before-ack: the epoch reaches the WAL before any caller
	// observes it as committed, so an acknowledged write survives the
	// process. On append failure the futures fail — the in-memory
	// index is ahead of the log at that point and a restart would
	// roll the epoch back, so it must not be acknowledged.
	if s.dur != nil {
		if err := s.dur.commitEpoch(s.ix, plan); err != nil {
			err = fmt.Errorf("serve: wal append: %w", err)
			for _, c := range plan.calls {
				s.finishErr(c, err)
			}
			return
		}
	}
	if plan.op == OpDelete {
		off := 0
		for _, c := range plan.calls {
			c.fut.found = found[off : off+len(c.keys) : off+len(c.keys)]
			if c.rec != nil {
				c.rec.Found = c.fut.found
			}
			off += len(c.keys)
		}
	}
	s.deliver(plan.calls)
}

// slabKeys sums the requested key counts of a sub-batch's calls, so
// result distribution can carve per-call views out of one allocation.
func slabKeys(calls []*call) int {
	n := 0
	for _, c := range calls {
		n += len(c.keys)
	}
	return n
}

func (s *Server) executeRead(plan *epochPlan) {
	if rb := &plan.reads[OpGet]; len(rb.uniq) > 0 {
		vals, found := s.ix.GetPrepared(rb.prep)
		nslab := slabKeys(rb.calls)
		vslab := make([]uint64, nslab)
		fslab := make([]bool, nslab)
		for _, c := range rb.calls {
			n := len(c.keys)
			c.fut.vals, vslab = vslab[:n:n], vslab[n:]
			c.fut.found, fslab = fslab[:n:n], fslab[n:]
			for j, si := range c.slots {
				c.fut.vals[j], c.fut.found[j] = vals[si], found[si]
			}
			if c.rec != nil {
				c.rec.Vals, c.rec.Found = c.fut.vals, c.fut.found
			}
		}
		s.deliver(rb.calls)
	}
	if rb := &plan.reads[OpLCP]; len(rb.uniq) > 0 {
		lcps := s.ix.LCPPrepared(rb.prep)
		islab := make([]int, slabKeys(rb.calls))
		for _, c := range rb.calls {
			n := len(c.keys)
			c.fut.ints, islab = islab[:n:n], islab[n:]
			for j, si := range c.slots {
				c.fut.ints[j] = lcps[si]
			}
			if c.rec != nil {
				c.rec.LCPs = c.fut.ints
			}
		}
		s.deliver(rb.calls)
	}
	if rb := &plan.reads[OpSubtree]; len(rb.uniq) > 0 {
		kvs := s.ix.SubtreesPrepared(rb.prep)
		for _, c := range rb.calls {
			c.fut.kvs = make([][]KV, len(c.keys))
			for j, si := range c.slots {
				c.fut.kvs[j] = kvs[si]
			}
			if c.rec != nil {
				c.rec.KVs = c.fut.kvs
			}
		}
		s.deliver(rb.calls)
	}
}

// appendKeyID appends k's canonical map identity — bit length plus
// payload words (tail bits are always zeroed by bitstr) — to buf.
// Callers reuse one scratch buffer under Server.mu; map lookups via
// string(buf) do not allocate, only insertions intern the string.
func appendKeyID(buf []byte, k Key) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k.Len()))
	for _, w := range k.RawWords() {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}
