package main

// Helpers shared by the two serving workloads: reading the serving
// layer's counters and registry series before and after a window, and
// turning the difference into the serve, wal and pim metrics.

import (
	"time"

	"github.com/pimlab/pimtrie"
	"github.com/pimlab/pimtrie/internal/metrics"
	"github.com/pimlab/pimtrie/internal/serve"
)

// serveOps are the request kinds the workloads send.
var serveOps = []string{"get", "insert", "delete"}

// serveState is one reading of every counter the serve metrics come
// from, summed over the servers of a run (one, or one per shard).
type serveState struct {
	at      time.Time
	servers int
	serve.Stats
	model pimtrie.Metrics

	// Registry series, nil registry leaves them empty.
	linger, prepare, execute, request, epochKeys, chunkKeys, ckpt metrics.HistSnapshot
	ckptWrites                                                    uint64
}

// readServe reads stats and registry series for servers labelled by
// labelSets (nil labels for a single unlabelled server).
func readServe(reg *metrics.Registry, labelSets [][]metrics.Label, stats []serve.Stats, model []pimtrie.Metrics) serveState {
	st := serveState{at: time.Now(), servers: len(stats)}
	for i, s := range stats {
		addStats(&st.Stats, s)
		st.model = st.model.Add(model[i])
	}
	if reg == nil {
		return st
	}
	hist := func(name string, ls []metrics.Label) metrics.HistSnapshot {
		return reg.Histogram(name, "", ls...).Snapshot()
	}
	for _, ls := range labelSets {
		st.linger = st.linger.Merge(hist("pimtrie_serve_linger_seconds", ls))
		st.prepare = st.prepare.Merge(hist("pimtrie_serve_prepare_seconds", ls))
		st.execute = st.execute.Merge(hist("pimtrie_serve_execute_seconds", ls))
		st.epochKeys = st.epochKeys.Merge(hist("pimtrie_serve_epoch_keys", ls))
		st.chunkKeys = st.chunkKeys.Merge(hist("pimtrie_serve_completion_chunk_keys", ls))
		st.ckpt = st.ckpt.Merge(hist("pimtrie_checkpoint_seconds", ls))
		st.ckptWrites += reg.Counter("pimtrie_checkpoint_writes_total", "", ls...).Value()
		for _, op := range serveOps {
			opLabels := append(append([]metrics.Label(nil), ls...), metrics.L("op", op))
			st.request = st.request.Merge(hist("pimtrie_serve_request_seconds", opLabels))
		}
	}
	return st
}

func addStats(dst *serve.Stats, s serve.Stats) {
	for i := range s.Requests {
		dst.Requests[i] += s.Requests[i]
		dst.KeysRequested[i] += s.KeysRequested[i]
		dst.KeysExecuted[i] += s.KeysExecuted[i]
	}
	dst.ReadEpochs += s.ReadEpochs
	dst.WriteEpochs += s.WriteEpochs
	dst.DedupedKeys += s.DedupedKeys
	dst.SnapshotKeys += s.SnapshotKeys
	dst.SnapshotFallbacks += s.SnapshotFallbacks
}

// executed is the number of keys the servers sent to their indexes.
func (s serveState) executed() (n uint64) {
	for _, k := range s.KeysExecuted {
		n += k
	}
	return n
}

// serveModel sets the model metrics of the epochs the servers executed
// between a and b.
func serveModel(e map[string]float64, a, b serveState) {
	epochs := (b.ReadEpochs + b.WriteEpochs) - (a.ReadEpochs + a.WriteEpochs)
	modelMetrics(e, b.model.Sub(a.model), int64(epochs), int64(b.executed()-a.executed()))
}

// serveLayer sets the serve metrics of the window between a and b;
// execute_busy_frac is the mean over the servers.
func serveLayer(out *outcome, a, b serveState) {
	wallS := b.at.Sub(a.at).Seconds()
	ms := func(h metrics.HistSnapshot, q float64) float64 { return 1e3 * h.Quantile(q) }
	l := out.layer
	l["serve.queue_wait_ms_p50"] = ms(histDelta(a.linger, b.linger), 0.5)
	l["serve.prepare_ms_p50"] = ms(histDelta(a.prepare, b.prepare), 0.5)
	execute := histDelta(a.execute, b.execute)
	l["serve.execute_ms_p50"] = ms(execute, 0.5)
	l["serve.request_ms_p50"] = ms(histDelta(a.request, b.request), 0.5)
	l["serve.epoch_keys_mean"] = histDelta(a.epochKeys, b.epochKeys).Mean()
	l["serve.read_epochs_per_s"] = float64(b.ReadEpochs-a.ReadEpochs) / wallS
	l["serve.write_epochs_per_s"] = float64(b.WriteEpochs-a.WriteEpochs) / wallS
	if admitted := b.KeysRequested[serve.OpGet] - a.KeysRequested[serve.OpGet]; admitted > 0 {
		l["serve.dedupe_ratio"] = float64(b.DedupedKeys-a.DedupedKeys) / float64(admitted)
	}
	l["serve.execute_busy_frac"] = execute.Sum / wallS / float64(b.servers)
	l["serve.completion_chunk_keys_mean"] = histDelta(a.chunkKeys, b.chunkKeys).Mean()
}
