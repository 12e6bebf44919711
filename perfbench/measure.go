package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timer collects per-call durations in nanoseconds.
type timer struct{ ns []float64 }

func (t *timer) since(start time.Time) { t.ns = append(t.ns, float64(time.Since(start))) }
func (t *timer) q(q float64) float64   { return quantile(t.ns, q) }

// runtimeSample is one reading of the Go runtime counters the go layer
// reports; the difference of two readings covers the window between.
type runtimeSample struct {
	gcCycles  uint64
	gcPauseNs uint64
	allocs    uint64
	mutexWait float64
	sched     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSample{gcPauseNs: ms.PauseTotalNs}
	for _, x := range samples {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			if x.Name == "/gc/cycles/total:gc-cycles" {
				s.gcCycles = x.Value.Uint64()
			} else {
				s.allocs = x.Value.Uint64()
			}
		case metrics.KindFloat64:
			s.mutexWait = x.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := x.Value.Float64Histogram()
			s.sched = &metrics.Float64Histogram{
				Counts:  append([]uint64(nil), h.Counts...),
				Buckets: append([]float64(nil), h.Buckets...),
			}
		}
	}
	return s
}

// goLayer fills the go layer's metrics for the window from a to b;
// updates is the workload's unit of work for the per-update ratio.
func goLayer(layers map[string]float64, a, b runtimeSample, updates float64) {
	layers["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	layers["go.gc_pause_ms"] = float64(b.gcPauseNs-a.gcPauseNs) / 1e6
	if updates > 0 {
		layers["go.alloc_bytes_per_update"] = float64(b.allocs-a.allocs) / updates
	}
	layers["go.mutex_wait_ms"] = (b.mutexWait - a.mutexWait) * 1e3
	layers["go.sched_latency_p99_us"] = schedQuantile(a.sched, b.sched, 0.99) * 1e6
}

// schedQuantile returns the q-quantile (seconds) of the scheduler
// latencies recorded between two histogram readings, taking each
// bucket's upper bound.
func schedQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= rank {
			upper := b.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = b.Buckets[i]
			}
			return upper
		}
	}
	return 0
}

// heapMiB returns the live heap in MiB after two collections: the
// second empties the sync.Pool caches the first only demotes, so what
// remains is what the workload's state retains.
func heapMiB() float64 {
	runtime.GC()
	return float64(liveHeap()) / (1 << 20)
}

// span is one timed call of the benchmark into a layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the run began.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced run: every method is a no-op.
type spanLog struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// reserve returns the ID of a span recorded later with record, so its
// children can name it as their parent before it ends.
func (l *spanLog) reserve() uint64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

// record stores a span reserved earlier.
func (l *spanLog) record(id, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)),
	})
}

// add records a span from start to end and returns its ID.
func (l *spanLog) add(name string, parent uint64, start, end time.Time) uint64 {
	id := l.reserve()
	l.record(id, parent, name, start, end)
	return id
}

// writeJSONL writes one span per line.
func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
