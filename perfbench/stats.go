package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a tail resting on fewer samples is one slow event,
// not a percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	return sorted[rankOf(len(sorted), q)]
}

// rankOf is the 0-based nearest-rank index of the q-quantile of n
// samples.
func rankOf(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tail returns the q-quantile of samples (sorting them in place) and
// fails when fewer than minBeyond samples lie above it.
func tail(samples []float64, q float64) (float64, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("tail p%g: no samples", 100*q)
	}
	sort.Float64s(samples)
	i := rankOf(len(samples), q)
	if beyond := len(samples) - 1 - i; beyond < minBeyond {
		return 0, fmt.Errorf("tail p%g: %d of %d samples lie beyond it, need %d", 100*q, beyond, len(samples), minBeyond)
	}
	return samples[i], nil
}

// latencies collects client-observed latencies of one request class in
// milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// summarize returns the median and the q-tail of l, in milliseconds.
func (l latencies) summarize(q float64) (p50, tailMs float64, err error) {
	tailMs, err = tail(l, q) // sorts l
	if err != nil {
		return 0, 0, err
	}
	return quantile(l, 0.5), tailMs, nil
}

// openLoop is the schedule of an open-loop generator: request i is due
// at start + i·interval whether or not earlier requests have finished.
// Latency runs from the due time, so a stall that delays later sends is
// charged to them; lateness is how far a send trailed its due time.
type openLoop struct {
	start    time.Time
	interval time.Duration
	n        int
}

// due returns the due time of the next request.
func (o *openLoop) due() time.Time { return o.start.Add(time.Duration(o.n) * o.interval) }

// record closes the next request, sent at sent and completed at done,
// and returns its latency and lateness.
func (o *openLoop) record(sent, done time.Time) (latency, late time.Duration) {
	due := o.due()
	o.n++
	return done.Sub(due), max(sent.Sub(due), 0)
}

// tally counts checked operations and the ones whose answer or error
// disagreed with the oracle.
type tally struct {
	attempted, failed int64
	firstErr          string
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// check counts one operation, failing it unless ok; the description is
// formatted only on failure.
func (t *tally) check(ok bool, describe func() string) {
	t.attempted++
	if !ok {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = describe()
		}
	}
}

// checkGets compares a Get batch's answers with the expected ones.
func (t *tally) checkGets(op string, vals []uint64, found []bool, wantVals []uint64, wantFound []bool) {
	for i := range wantVals {
		ok := i < len(vals) && i < len(found) && found[i] == wantFound[i] && (!found[i] || vals[i] == wantVals[i])
		t.check(ok, func() string {
			return fmt.Sprintf("%s[%d] of %d: got %d answers, want (%d, %v)", op, i, len(wantVals), len(vals), wantVals[i], wantFound[i])
		})
	}
}
