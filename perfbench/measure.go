package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/stats"
)

// latencies collects per-operation durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

func (l latencies) quantile(q float64) float64 { return stats.Quantile(l, q) }

// medianOf returns the median of per-pass readings.
func medianOf(xs []float64) float64 { return stats.Median(xs) }

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
