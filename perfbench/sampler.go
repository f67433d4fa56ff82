package main

import (
	"runtime/metrics"
	"time"
)

// samplePeriod is how often the runtime sampler reads the heap and the
// probes handed to it.
const samplePeriod = 5 * time.Millisecond

// runtimeStats reads the runtime counters the benchmark reports.
type runtimeStats struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// sampler tracks the peak Go heap in use during a measured window and
// calls each probe once per period. It runs on its own goroutine from
// startSampler until stop returns.
type sampler struct {
	probes   []func()
	peakHeap uint64
	quit     chan struct{}
	done     chan struct{}
}

func startSampler(probes ...func()) *sampler {
	s := &sampler{probes: probes, quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	for {
		metrics.Read(heap)
		s.peakHeap = max(s.peakHeap, heap[0].Value.Uint64())
		for _, p := range s.probes {
			p()
		}
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
	}
}

// stop ends sampling and returns the peak heap in MiB.
func (s *sampler) stop() float64 {
	close(s.quit)
	<-s.done
	return float64(s.peakHeap) / (1 << 20)
}
