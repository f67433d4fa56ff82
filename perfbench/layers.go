package main

import (
	"strings"

	"github.com/pimlab/pimtrie/internal/metrics"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, each measured on every
// workload. ok_frac is 1 − failed/attempted: a failure fraction would be
// 0 on every healthy run, and a zero median gives a relative bound
// nothing to scale.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_tail_ms", "ms"},
	{"heap_peak_mb", "MiB"},
	{"ok_frac", "frac"},
	{"model_rounds_per_batch", "rounds"},
	{"model_io_words_per_key", "words"},
	{"model_pim_work_per_key", "work"},
	{"model_io_balance", "ratio"},
}

// indexOps are the public Index batch calls, by the name of the phase
// each opens.
var indexOps = []string{"lcp", "get", "subtree", "insert", "delete"}

// corePhases are the phase markers the index emits during the
// workloads' operations.
var corePhases = []string{
	"prepare", "lcp", "get", "subtree", "insert", "delete",
	"block-match", "master-match", "region-match", "push-pull",
	"build", "install-blocks", "meta-split", "block-split", "block-remove",
	"master-broadcast", "master-update", "master-delta",
	"rehash", "assemble-hvm", "shadow", "apply",
}

// perLayer lists the metrics of a traced run. A layer a workload does
// not exercise reads 0 there (no WAL on batch-skew, no router on
// serve-durable, and so on).
var perLayer = func() []metricDef {
	var out []metricDef
	for _, op := range indexOps {
		out = append(out, metricDef{"index." + op + "_us_per_key", "us"})
	}
	for _, p := range corePhases {
		out = append(out, metricDef{"core." + p + "_self_ms", "ms"})
	}
	return append(out, []metricDef{
		{"core.phase_coverage", "frac"},
		{"pim.rounds_per_call", "rounds"},
		{"pim.io_words_per_key", "words"},
		{"pim.io_balance", "ratio"},
		{"pim.work_balance", "ratio"},
		{"trie.flatten_ms", "ms"},
		{"trie.probe_ns_per_key", "ns"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.prepare_ms_p50", "ms"},
		{"serve.execute_ms_p50", "ms"},
		{"serve.request_ms_p50", "ms"},
		{"serve.epoch_keys_mean", "keys"},
		{"serve.read_epochs_per_s", "1/s"},
		{"serve.write_epochs_per_s", "1/s"},
		{"serve.dedupe_ratio", "frac"},
		{"serve.execute_busy_frac", "frac"},
		{"serve.completion_chunk_keys_mean", "keys"},
		{"serve.snapshot_hit_frac", "frac"},
		{"serve.snapshot_age_epochs", "epochs"},
		{"serve.publish_interval_ms", "ms"},
		{"wal.fsyncs_per_s", "1/s"},
		{"wal.bytes_per_key", "bytes"},
		{"wal.appends_per_write_epoch", "ratio"},
		{"wal.checkpoints", "count"},
		{"wal.checkpoint_ms_p50", "ms"},
		{"wal.checkpoint_ms_max", "ms"},
		{"shard.keys_per_call", "keys"},
		{"shard.load_imbalance", "ratio"},
		{"shard.snapshot_fallback_frac", "frac"},
		{"shard.migrations", "count"},
		{"runtime.gc_cycles_per_s", "1/s"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.alloc_mb_per_kkey", "MiB"},
		{"gen.late_p99_ms", "ms"},
		{"gen.sent_per_s", "1/s"},
		{"trace.overhead_frac", "frac"},
	}...)
}()

// phaseLayer turns the traced run's spans and round totals into the
// core and pim metrics. callNs is the time the index spent in its batch
// calls (the benchmark's own call spans, or the serving layer's execute
// time), and keys the keys those calls carried.
func phaseLayer(out *outcome, tr *tracer, callNs float64, keys int64) {
	spans := tr.spans()
	self := selfTimes(spans)
	for _, p := range corePhases {
		out.layer["core."+p+"_self_ms"] = float64(self[p]) / 1e6
	}
	isOp := map[string]bool{}
	for _, op := range indexOps {
		isOp[op] = true
	}
	// Outermost phases: those whose parent is no phase, but the
	// benchmark's call span or nothing.
	phaseIDs := map[int64]bool{}
	for _, s := range spans {
		if !isCall(s) {
			phaseIDs[s.id] = true
		}
	}
	var phaseNs, calls int64
	for _, s := range spans {
		if isCall(s) || phaseIDs[s.parent] {
			continue
		}
		phaseNs += s.end - s.start
		if isOp[s.name] {
			calls++
		}
	}
	out.layer["core.phase_coverage"] = float64(phaseNs) / callNs
	var rounds, io, maxIO, work, maxWork int64
	for _, r := range tr.recs {
		rounds += r.rounds
		io += r.ioWords
		maxIO += r.maxIO
		work += r.work
		maxWork += r.maxWork
	}
	out.layer["pim.rounds_per_call"] = float64(rounds) / float64(calls)
	out.layer["pim.io_words_per_key"] = float64(io) / float64(keys)
	out.layer["pim.io_balance"] = modules * float64(maxIO) / float64(io)
	out.layer["pim.work_balance"] = modules * float64(maxWork) / float64(work)
}

// isCall reports whether a span is one the benchmark recorded around
// its own call ("index.get", "client.insert"); phase names have no dot.
func isCall(s span) bool { return strings.Contains(s.name, ".") }

// selfTimes sums, per span name, each span's duration minus the
// durations of its children. Children run on their parent's goroutine
// and nest, so they never overlap one another.
func selfTimes(spans []span) map[string]int64 {
	childNs := map[int64]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.name] += s.end - s.start - childNs[s.id]
	}
	return self
}

// histDelta returns the observations a histogram gained between two
// snapshots.
func histDelta(before, after metrics.HistSnapshot) metrics.HistSnapshot {
	prev := map[int]uint64{}
	for _, b := range before.Buckets {
		prev[b.Index] = b.Count
	}
	d := metrics.HistSnapshot{Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.Index]; c > 0 {
			d.Buckets = append(d.Buckets, metrics.Bucket{Index: b.Index, Count: c})
			d.Count += c
		}
	}
	return d
}
