// Command perfbench is the repository's benchmark: it drives the MOAS
// detector through the public functions of its internal packages on
// seeded synthetic inputs, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output. README.md defines
// the workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, on every
// workload (README: what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"updates_per_s", "1/s"},
	{"cpu_us_per_update", "us"},
	{"detect_p50_us", "us"},
	{"detect_p90_us", "us"},
	{"heap_mib", "MiB"},
}

// perLayer lists the metrics every traced run reports. A layer a
// workload does not exercise reports 0 (README marks them n/a).
var perLayer = []metricDef{
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"gen.window_wait_ratio", "ratio"},
	{"wire.decode_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"obs.decode.p50_ns", "ns"},
	{"obs.decode.p99_ns", "ns"},
	{"obs.session.p50_ns", "ns"},
	{"obs.session.p99_ns", "ns"},
	{"session.drops", "count"},
	{"obs.validate.p50_ns", "ns"},
	{"obs.validate.p99_ns", "ns"},
	{"obs.rib.p50_ns", "ns"},
	{"obs.rib.p99_ns", "ns"},
	{"speaker.export_ratio", "ratio"},
	{"speaker.rejected", "count"},
	{"speaker.cover_purged", "count"},
	{"core.check_ns_p50", "ns"},
	{"core.check_ns_p99", "ns"},
	{"core.alarms", "count"},
	{"rib.update_ns_p50", "ns"},
	{"rib.update_ns_p99", "ns"},
	{"rib.bytes_per_route", "B"},
	{"rib.routes_from_ms", "ms"},
	{"rpki.validate_ns_p50", "ns"},
	{"obs.alarm.p50_ns", "ns"},
	{"obs.alarm.p99_ns", "ns"},
	{"detect.p99_us", "us"},
	{"detect.samples", "count"},
	{"collector.inject_ns_p50", "ns"},
	{"collector.inject_ns_p99", "ns"},
	{"collector.lag_ms", "ms"},
	{"monitor.observe_ns_p50", "ns"},
	{"monitor.observe_ns_p99", "ns"},
	{"mrt.next_ns_p50", "ns"},
	{"telemetry.series", "count"},
	{"trace.alarm_bundles", "count"},
	{"sim_runs_per_s", "1/s"},
	{"experiment.run_ms_p50", "ms"},
	{"experiment.run_ms_p99", "ms"},
	{"simbgp.messages_per_run", "count"},
	{"topology.generate_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.alloc_bytes_per_update", "B"},
	{"go.mutex_wait_ms", "ms"},
	{"go.sched_latency_p99_us", "us"},
	{"error_ratio", "ratio"},
}

var workloads = map[string]func(*run) error{
	"live":       runLive,
	"mrt-replay": runMRTReplay,
	"sim-sweep":  runSimSweep,
}

// run is one invocation's state: its settings, what it measured, and
// the outcome of its correctness gates.
type run struct {
	workload string
	seed     int64
	seconds  float64
	spans    *spanLog // nil when untraced
	out      string   // artifact directory of this workload

	e2e       map[string]float64
	layers    map[string]float64
	attempted int64
	failed    int64
	gates     []string // failed gate descriptions
}

func (w *run) traced() bool { return w.spans != nil }

// fail records a failed correctness gate.
func (w *run) fail(format string, args ...any) {
	w.gates = append(w.gates, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(benchMain())
}

func benchMain() int {
	workload := flag.String("workload", "", "workload to run: live, mrt-replay or sim-sweep")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measurement time per run")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	artifacts := flag.String("artifacts", ".bench_build/perfbench", "directory for spans, profiles and per-layer tables")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload live|mrt-replay|sim-sweep, --seconds > 0, --trace 0|1\n")
		return 2
	}
	w := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		out:      filepath.Join(*artifacts, *workload),
		e2e:      make(map[string]float64),
		layers:   make(map[string]float64),
	}
	if err := os.MkdirAll(w.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var stopProfiles func() error
	if *traceFlag == 1 {
		w.spans = newSpanLog()
		var err error
		if stopProfiles, err = startProfiles(w.out); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	if err := fn(w); err != nil {
		if stopProfiles != nil {
			_ = stopProfiles()
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.workload, err)
		return 2
	}
	if w.attempted < 1 {
		w.attempted = 1
	}
	w.layers["error_ratio"] = float64(w.failed) / float64(w.attempted)

	res := result{
		Correct:   len(w.gates) == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs, values := endToEnd, w.e2e
	if w.traced() {
		defs, values = perLayer, w.layers
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := writeTraceArtifacts(w); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	} else if err := writeJSON(filepath.Join(w.out, "e2e.json"), w.e2e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}

	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  (%d CPUs, %s)\n",
		w.workload, w.seed, w.seconds, *traceFlag, runtime.NumCPU(), runtime.Version())
	for _, d := range defs {
		fmt.Printf("  %-28s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("  %-28s %16.6f ratio (%d failed of %d attempted)\n", "error_ratio",
		w.layers["error_ratio"], w.failed, w.attempted)
	for _, g := range w.gates {
		fmt.Printf("  GATE FAILED: %s\n", g)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// startProfiles turns on the CPU profile and mutex sampling; the
// returned function writes both profiles.
func startProfiles(dir string) (func() error, error) {
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	runtime.SetMutexProfileFraction(10)
	return func() error {
		pprof.StopCPUProfile()
		runtime.SetMutexProfileFraction(0)
		if err := cpu.Close(); err != nil {
			return err
		}
		mu, err := os.Create(filepath.Join(dir, "mutex.pprof"))
		if err != nil {
			return err
		}
		if err := pprof.Lookup("mutex").WriteTo(mu, 0); err != nil {
			mu.Close()
			return err
		}
		return mu.Close()
	}, nil
}

// writeTraceArtifacts writes the spans, the per-layer table and the
// tracing-overhead line of a traced run.
func writeTraceArtifacts(w *run) error {
	if err := w.spans.writeJSONL(filepath.Join(w.out, "spans.jsonl")); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(w.out, "layers.json"), w.layers); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench per-layer table: %s, seed %d, %g s, %d CPUs, %s\n\n",
		w.workload, w.seed, w.seconds, runtime.NumCPU(), runtime.Version())
	b.WriteString("| metric | value | unit |\n|---|---|---|\n")
	for _, d := range perLayer {
		v, ok := w.layers[d.name]
		cell := fmt.Sprintf("%.4f", v)
		if !ok {
			cell = "n/a"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", d.name, cell, d.unit)
	}
	if w.workload == "live" {
		b.WriteString("\n" + detectSplit(w) + "\n")
	}
	b.WriteString("\n" + overheadLine(w) + "\n")
	return os.WriteFile(filepath.Join(w.out, "layers.md"), []byte(b.String()), 0o644)
}

// detectSplit splits the live median detection latency into the
// generator's lateness, the in-process obs stages, and the remainder:
// transport plus the wait before the session reads the message.
func detectSplit(w *run) string {
	detect := w.e2e["detect_p50_us"]
	late := w.layers["gen.late_p50_us"]
	alarm := w.layers["obs.alarm.p50_ns"] / 1e3
	stages := 0.0
	for _, s := range []string{"decode", "session", "validate"} {
		stages += w.layers["obs."+s+".p50_ns"] / 1e3
	}
	return fmt.Sprintf("detect_p50_us %.1f = gen.late_p50 %.1f + obs.alarm.p50 (ingest→alarm) %.1f + transport and read wait %.1f us "+
		"(stage medians within the alarm stage: decode+session+validate %.1f us)",
		detect, late, alarm, detect-late-alarm, stages)
}

// overheadLine compares the traced run's end-to-end figures with those
// of the last untraced run of the workload in this artifact directory.
func overheadLine(w *run) string {
	var base map[string]float64
	data, err := os.ReadFile(filepath.Join(w.out, "e2e.json"))
	if err == nil {
		err = json.Unmarshal(data, &base)
	}
	if err != nil {
		return "tracing overhead: no untraced run of this workload to compare with"
	}
	names := make([]string, 0, len(w.e2e))
	for k := range w.e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		if b, ok := base[k]; ok && b != 0 {
			parts = append(parts, fmt.Sprintf("%s %+.1f%%", k, 100*(w.e2e[k]-b)/b))
		}
	}
	return "tracing overhead (traced vs last untraced run): " + strings.Join(parts, ", ")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
