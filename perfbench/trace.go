package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pimlab/pimtrie/internal/pim"
)

// span is one timed interval of the traced run: a client or batch call
// made by the benchmark, or a phase the index reported through its
// Recorder. Times are nanoseconds since the tracer started; parent is 0
// for a root span; req ties a span to the request that caused it.
type span struct {
	name       string
	start, end int64
	id, parent int64
	req        int64
}

// tracer owns the spans of one traced run. Each goroutine that records
// spans appends to its own spanBuf, so recording takes no lock; the
// buffers are merged once the run has stopped.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// on is set while the measured window runs, which began at trace
	// time startNs; spans that start outside it are not kept.
	on      atomic.Bool
	startNs atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
	recs []*phaseRecorder
}

type spanBuf struct{ spans []span }

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens the measured window.
func (t *tracer) begin() {
	t.startNs.Store(t.now())
	t.on.Store(true)
}

// end closes the measured window.
func (t *tracer) end() { t.on.Store(false) }

// now is the current trace time.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// buf registers a span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// call records a span around one call the benchmark makes; parent is
// 0 for a client call.
func (t *tracer) call(b *spanBuf, name string, id, req, start, end int64) {
	if t.on.Load() {
		b.spans = append(b.spans, span{name: name, start: start, end: end, id: id, req: req})
	}
}

// spans returns every recorded span. Call it only after every
// recording goroutine has stopped.
func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// write stores the spans as gzipped JSON lines, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level never errs
	w := bufio.NewWriter(zw)
	for _, s := range t.spans() {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"id\":%d,\"parent\":%d,\"req\":%d}\n",
			s.name, s.start, s.end, s.id, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseRecorder is the pim.Recorder attached to one simulated system.
// BeginPhase, EndPhase and RecordRound run on the goroutine driving the
// system's batches; RecordCPUWork may also arrive from the serving
// layer's prepare goroutine and is ignored. A phase's parent is the
// enclosing phase, or else the index call the benchmark has open on
// the same goroutine (callID); on a serve executor there is none, and
// the outermost phase stands in for the epoch.
type phaseRecorder struct {
	t     *tracer
	buf   *spanBuf
	stack []span
	// callID and callReq name the benchmark's open index call on the
	// driving goroutine; written by that goroutine only.
	callID, callReq int64

	// Round totals of the measured window.
	rounds, ioWords, maxIO, work, maxWork int64
}

var _ pim.Recorder = (*phaseRecorder)(nil)

func (t *tracer) recorder() *phaseRecorder {
	r := &phaseRecorder{t: t, buf: t.buf()}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

func (r *phaseRecorder) BeginPhase(name string) {
	parent := r.callID
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].id
	}
	r.stack = append(r.stack, span{name: name, start: r.t.now(), id: r.t.nextID.Add(1), parent: parent, req: r.callReq})
}

func (r *phaseRecorder) EndPhase() {
	s := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if r.t.on.Load() && s.start >= r.t.startNs.Load() {
		s.end = r.t.now()
		r.buf.spans = append(r.buf.spans, s)
	}
}

func (r *phaseRecorder) RecordRound(tr pim.RoundTrace) {
	if !r.t.on.Load() {
		return
	}
	r.rounds++
	r.ioWords += tr.SendWords + tr.RecvWords
	r.maxIO += tr.MaxIO
	r.work += tr.Work
	r.maxWork += tr.MaxWork
}

func (r *phaseRecorder) RecordCPUWork(int) {}
