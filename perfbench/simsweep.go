package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/topology"
)

// Sweep shape: the internet-scale hijack sweep of moas-sim's experiment
// 4 (one origin AS; 1, 2 and 4 attackers; Normal BGP against Full MOAS
// detection, with simulated ROA coverage) on 10,000 ASes rather than
// 30,000, with the paper's 3 origin sets x 5 attacker sets per point
// rather than experiment 4's 1 x 3, so a run holds several sweeps and
// no single origin draw dominates a point.
const (
	simNodes        = 10000
	simOriginSets   = 3
	simAttackerSets = 5
	simROACoverage  = 0.5
	// simDetectOriginSets origin draws per point (with simAttackerSets
	// attacker draws each) are timed one by one under Full detection,
	// so the latency quantiles rest on 135 distinct scenarios with 27
	// distinct origins and depend little on which ones a seed draws.
	simDetectOriginSets = 3 * simOriginSets
)

var (
	simAttackers = []int{1, 2, 4}
	simModes     = []experiment.ModeSpec{
		{Label: "Normal BGP", Detection: experiment.DetectionOff},
		{Label: "Full MOAS Detection", Detection: experiment.DetectionFull},
	}
)

func sweepConfig(topo *topology.SampleResult, seed int64) experiment.SweepConfig {
	return experiment.SweepConfig{
		Topology:       topo,
		TopologyName:   fmt.Sprintf("powerlaw-%d", simNodes),
		NumOrigins:     1,
		AttackerCounts: simAttackers,
		Modes:          simModes,
		OriginSets:     simOriginSets,
		AttackerSets:   simAttackerSets,
		Seed:           seed,
		Parallelism:    runtime.NumCPU(),
		ROACoverage:    simROACoverage,
	}
}

// sweepOnce runs one sweep and returns its CSV, the number of runs and
// the UPDATE deliveries they simulated.
func sweepOnce(cfg experiment.SweepConfig) (csv []byte, runs int, messages float64, res *experiment.SweepResult, err error) {
	res, err = experiment.Sweep(cfg)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	var buf bytes.Buffer
	if err := experiment.WriteCSV(&buf, res); err != nil {
		return nil, 0, 0, nil, err
	}
	perPoint := cfg.OriginSets * cfg.AttackerSets
	for _, p := range res.Points {
		for mi := range cfg.Modes {
			runs += perPoint
			messages += p.MeanMessages[mi] * float64(perPoint)
		}
	}
	return buf.Bytes(), runs, messages, res, nil
}

// fullScenarios returns one run config per scenario and mode of cfg,
// drawn the way experiment.Sweep draws its selections.
func fullScenarios(cfg experiment.SweepConfig, modes []experiment.ModeSpec) ([]experiment.RunConfig, error) {
	var out []experiment.RunConfig
	for pi, count := range cfg.AttackerCounts {
		scens, err := experiment.Selections(cfg.Topology, cfg.NumOrigins, count,
			cfg.OriginSets, cfg.AttackerSets, cfg.Seed+int64(pi)*1_000_003)
		if err != nil {
			return nil, err
		}
		for _, m := range modes {
			for _, s := range scens {
				out = append(out, experiment.RunConfig{
					Topology:    cfg.Topology,
					Scenario:    s,
					Detection:   m.Detection,
					ROACoverage: cfg.ROACoverage,
				})
			}
		}
	}
	return out, nil
}

// timeRuns runs each config with nproc workers and returns each run's
// wall time in microseconds and its UPDATE deliveries.
func timeRuns(w *run, cfgs []experiment.RunConfig) ([]float64, []float64, error) {
	passStart := time.Now()
	pass := w.spans.reserve()
	defer func() { w.spans.record(pass, 0, "sim.detect_pass", passStart, time.Now()) }()
	us := make([]float64, len(cfgs))
	msgs := make([]float64, len(cfgs))
	errs := make([]error, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				start := time.Now()
				res, err := experiment.Run(cfgs[i])
				end := time.Now()
				w.spans.add("experiment.run", pass, start, end)
				us[i] = float64(end.Sub(start)) / 1e3
				msgs[i] = float64(res.Messages)
				errs[i] = err
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return us, msgs, nil
}

func runSimSweep(w *run) error {
	var topo *topology.SampleResult
	var setups, gens []float64
	var wantCSV []byte
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if topo, err = topology.GeneratePowerLaw(topology.DefaultPowerLawParams(simNodes), w.seed); err != nil {
			return err
		}
		gens = append(gens, time.Since(start).Seconds())
		// The first sweep on a topology fills experiment's per-topology
		// network pool; later sweeps reuse it, so it counts as set-up.
		if wantCSV, _, _, _, err = sweepOnce(sweepConfig(topo, w.seed)); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	w.e2e["setup_s"] = median(setups)
	w.layers["topology.generate_s"] = median(gens)

	cfg := sweepConfig(topo, w.seed)
	detectCfg := cfg
	detectCfg.OriginSets = simDetectOriginSets
	full, err := fullScenarios(detectCfg, simModes[1:])
	if err != nil {
		return err
	}
	var rates, cpus, runRates, detect, perRun []float64
	rt0 := readRuntime()
	var updates float64
	deadline := time.Now().Add(time.Duration(w.seconds * float64(time.Second)))
	for len(rates) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		cpu0 := cpuTime()
		csv, runs, messages, res, err := sweepOnce(cfg)
		cpu1 := cpuTime()
		end := time.Now()
		if err != nil {
			return err
		}
		w.spans.add("experiment.sweep", 0, start, end)
		w.attempted += int64(runs)
		updates += messages
		rates = append(rates, messages/end.Sub(start).Seconds())
		cpus = append(cpus, float64(cpu1-cpu0)/1e3/messages)
		runRates = append(runRates, float64(runs)/end.Sub(start).Seconds())
		if !bytes.Equal(csv, wantCSV) {
			w.fail("sweep %d CSV differs from the first sweep of the same seed", len(rates))
			w.failed++
		}
		for pi, p := range res.Points {
			if p.MeanFalsePct[1] != 0 {
				w.fail("full MOAS detection shows %.2f%% adoption at point %d", p.MeanFalsePct[1], pi)
				w.failed++
			}
		}
		// Detection in the simulator: wall time of one scenario under
		// Full MOAS detection, converged and alarmed.
		us, msgs, err := timeRuns(w, full)
		if err != nil {
			return err
		}
		w.attempted += int64(len(full))
		detect = append(detect, us...)
		perRun = append(perRun, msgs...)
	}
	rt1 := readRuntime()
	w.e2e["updates_per_s"] = median(rates)
	w.e2e["cpu_us_per_update"] = median(cpus)
	w.e2e["detect_p50_us"] = quantile(detect, 0.5)
	w.e2e["detect_p90_us"] = quantile(detect, 0.9)
	w.e2e["heap_mib"] = heapMiB()
	runtime.KeepAlive(topo)

	goLayer(w.layers, rt0, rt1, updates)
	w.layers["sim_runs_per_s"] = median(runRates)
	w.layers["experiment.run_ms_p50"] = w.e2e["detect_p50_us"] / 1e3
	w.layers["experiment.run_ms_p99"] = quantile(detect, 0.99) / 1e3
	w.layers["simbgp.messages_per_run"] = median(perRun)
	return nil
}
