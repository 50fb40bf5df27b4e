package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
)

// runtimeSample is a reading of the Go runtime's process-wide counters.
type runtimeSample struct {
	allocs   uint64  // heap objects allocated, cumulative
	gcCPU    float64 // GC CPU seconds, cumulative
	totalCPU float64 // CPU seconds available to the runtime, cumulative
	gcCycles uint64
	live     uint64 // heap marked live by the last GC
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/live:bytes",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() == rtmetrics.KindUint64 {
			return samples[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() == rtmetrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: u(0), gcCPU: f(1), totalCPU: f(2), gcCycles: u(3), live: u(4)}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place. An infinite order statistic
// (a failed request) makes every quantile at or above it infinite.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// failedLatencyMs stands in for an infinite percentile (a failed request
// counted as missing every limit), which JSON cannot carry.
const failedLatencyMs = 1e9

// finite maps an infinite or undefined percentile to failedLatencyMs.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return failedLatencyMs
	}
	return v
}

// shareAbove returns the fraction of xs strictly above limit.
func shareAbove(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
