package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/obs"
	"repro/internal/speaker"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Live workload shape. The table and the churn phase both scale with
// --seconds, so a run measures for about that long on the reference
// machine (README): the table load takes roughly the first 40%.
const (
	// livePrefixesPerSecond sets the table size: prefixes = seconds × this.
	livePrefixesPerSecond = 16000
	// liveChurnRate is phase 2's fixed open-loop rate in messages per
	// second: a quarter or less of phase 1's rate on the reference
	// machine, where half let the queues grow and the latency figures
	// stop repeating. It is a constant, not derived from the run's own
	// phase 1, so detection latency is always measured at the same
	// offered load.
	liveChurnRate = 20000
	// liveForgedEvery: one phase-2 message in this many is forged.
	liveForgedEvery = 40
	// liveChurnShare of --seconds is spent in phase 2.
	liveChurnShare = 0.6
	// ingestWindow and exportWindow bound phase 1's closed loop:
	// UPDATEs sent but not yet counted in by the speaker, and UPDATEs
	// the speaker enqueued for export but no receiver has counted yet.
	// exportWindow sums over the three export peers, so every per-peer
	// send queue stays below half its 4096 entries.
	ingestWindow = 1024
	exportWindow = 2048
	// loadChunk is how many table UPDATEs go out in one socket write.
	loadChunk = 32
	// alarmDeadline is how long after its due time a forged message may
	// take to alarm before it counts as missed.
	alarmDeadline = 2 * time.Second
	// stallTimeout ends a phase that makes no progress (a dropped
	// session) so the run reports the loss instead of hanging.
	stallTimeout = 5 * time.Second
	// setupRepeats: set-up is done this many times, the median reported.
	setupRepeats = 3
	// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
	prSetTimerSlack = 29
)

// liveRig is one booted deployment: collector, validating speaker, and
// the generator's two peer sessions, plus the pre-encoded inputs.
type liveRig struct {
	tab   *table
	load  [2]stream // phase 1: the table as peer A and peer B announce it
	churn [2]stream // phase 2, per peer
	// sched lists phase 2 in send order: peer index and, for forged
	// messages, the index into forged (-1 otherwise).
	sched  []schedMsg
	forged []int // route index per forged message

	coll   *collector.Collector
	spk    *speaker.Speaker
	reg    *telemetry.Registry
	obs    *obs.Recorder
	rec    *trace.Recorder
	peers  [2]*genPeer
	in     *telemetry.Counter // speaker_updates_in_total
	out    *telemetry.Counter // speaker_updates_out_total
	collIn *telemetry.Counter // collector_updates_in_total

	t0        time.Time
	forgedIdx map[astypes.Prefix]int // read-only once booted
	dueAt     []int64                // forged message due time, ns since t0
	alarmAt   []atomic.Int64         // first alarm, ns since t0; 0 = none
	alarmN    []atomic.Int32
	benign    atomic.Int64
	measuring atomic.Bool
	drops     atomic.Int64
	// phase2 is the span ID of phase 2, the parent of alarm spans.
	phase2 uint64
}

type schedMsg struct {
	peer   uint8
	forged int32
}

// buildLiveInputs draws the table and encodes both phases.
func buildLiveInputs(seed int64, seconds float64) (*liveRig, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * livePrefixesPerSecond)
	r := &liveRig{tab: newTable(rng, n)}
	for i := range r.tab.routes {
		rt := &r.tab.routes[i]
		if err := r.load[0].add(update(rt.prefix, rt.pathA, rt.list)); err != nil {
			return nil, err
		}
		if err := r.load[1].add(update(rt.prefix, rt.pathB, rt.list)); err != nil {
			return nil, err
		}
	}
	m := int(seconds * liveChurnShare * liveChurnRate)
	nForged := m / liveForgedEvery
	if nForged > len(r.tab.single)/2 {
		return nil, fmt.Errorf("table of %d prefixes too small for %d forged messages", n, nForged)
	}
	r.forged = r.tab.single[:nForged]
	churnPool := r.tab.single[nForged:]
	r.forgedIdx = make(map[astypes.Prefix]int, nForged)
	for f, i := range r.forged {
		r.forgedIdx[r.tab.routes[i].prefix] = f
	}
	f := 0
	for k := 0; k < m; k++ {
		if k%liveForgedEvery == liveForgedEvery/2 && f < nForged {
			rt := &r.tab.routes[r.forged[f]]
			path := drawPath(rng, peerB, forgedOrigin(rng, rt))
			if err := r.churn[1].add(update(rt.prefix, path, core.List{})); err != nil {
				return nil, err
			}
			r.sched = append(r.sched, schedMsg{peer: 1, forged: int32(f)})
			f++
			continue
		}
		p := uint8(k % 2)
		rt := &r.tab.routes[churnPool[rng.Intn(len(churnPool))]]
		path := drawPath(rng, []astypes.ASN{peerA, peerB}[p], rt.originA)
		if err := r.churn[p].add(update(rt.prefix, path, core.List{})); err != nil {
			return nil, err
		}
		r.sched = append(r.sched, schedMsg{peer: p, forged: -1})
	}
	return r, nil
}

// boot starts the collector and the validator and opens the sessions.
// The validator is assembled with speaker.New from the parts
// daemon.Build uses (MOASRR store as Resolver, registry, obs and trace
// recorders, ROA store), because daemon.Config has no alarm hook.
func (r *liveRig) boot() error {
	r.t0 = time.Now()
	r.dueAt = make([]int64, len(r.forged))
	r.alarmAt = make([]atomic.Int64, len(r.forged))
	r.alarmN = make([]atomic.Int32, len(r.forged))

	r.coll = collector.New(collector.Config{RouterID: 6447})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.coll.Listen(cln)

	store := dnsval.NewStore()
	for _, i := range r.tab.implicit {
		rt := &r.tab.routes[i]
		store.Register(rt.prefix, core.NewList(rt.originA, rt.originB))
	}
	r.reg = telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(r.reg)
	r.obs = obs.NewRecorder()
	r.rec = trace.NewRecorder(256)
	r.spk, err = speaker.New(speaker.Config{
		AS:         validatorAS,
		RouterID:   uint32(validatorAS),
		Validation: speaker.ValidationDrop,
		Resolver:   store,
		Telemetry:  r.reg,
		Trace:      r.rec,
		RPKI:       r.tab.roaStore(),
		Obs:        r.obs,
		OnAlarm:    r.onAlarm,
		OnPeerDown: func(astypes.ASN) {
			if r.measuring.Load() {
				r.drops.Add(1)
			}
		},
	})
	if err != nil {
		return err
	}
	r.in = r.reg.Counter("speaker_updates_in_total", "")
	r.out = r.reg.Counter("speaker_updates_out_total", "")
	r.collIn = r.coll.Registry().Counter("collector_updates_in_total", "")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.spk.Listen(ln)
	if err := r.spk.Connect(cln.Addr().String(), collector.CollectorASN); err != nil {
		return err
	}
	for i, as := range []astypes.ASN{peerA, peerB} {
		if r.peers[i], err = dialPeer(ln.Addr().String(), as); err != nil {
			return err
		}
	}
	return waitFor(func() bool { return len(r.spk.Peers()) == 3 }, "sessions to establish")
}

// onAlarm runs on the speaker's session goroutine under its lock, so it
// only stamps the time.
func (r *liveRig) onAlarm(c core.Conflict) {
	now := int64(time.Since(r.t0))
	f, ok := r.forgedIdx[c.Prefix]
	if !ok {
		r.benign.Add(1)
		return
	}
	if r.alarmN[f].Add(1) == 1 {
		r.alarmAt[f].Store(now)
	}
}

func (r *liveRig) close() {
	r.measuring.Store(false)
	closeAll(r.peers[:])
	if r.spk != nil {
		r.spk.Close()
	}
	if r.coll != nil {
		r.coll.Close()
	}
}

// exportBacklog is the number of UPDATEs the speaker has enqueued for
// export that no receiver has counted yet.
func (r *liveRig) exportBacklog() int64 {
	return int64(r.out.Value()) - int64(r.collIn.Value()) - r.peers[0].drained.Load() - r.peers[1].drained.Load()
}

func waitFor(cond func() bool, what string) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

var errStalled = errors.New("no progress")

// settle waits until the speaker has counted in sent UPDATEs and every
// export has been received, returning the instants each held. A stall
// (a dropped session) returns errStalled.
func (r *liveRig) settle(sent int64) (ribDone, exportDone time.Time, err error) {
	last, lastMove := int64(-1), time.Now()
	for {
		in := int64(r.in.Value())
		if in >= sent && ribDone.IsZero() {
			ribDone = time.Now()
		}
		if !ribDone.IsZero() && r.exportBacklog() <= 0 {
			return ribDone, time.Now(), nil
		}
		if progress := in + int64(r.collIn.Value()); progress != last {
			last, lastMove = progress, time.Now()
		} else if time.Since(lastMove) > stallTimeout {
			return ribDone, time.Time{}, errStalled
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func runLive(w *run) error {
	var rig *liveRig
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		// Each set-up starts from a collected heap, so the garbage of
		// the previous one does not land in its time.
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = buildLiveInputs(w.seed, w.seconds); err != nil {
			return err
		}
		if err := rig.boot(); err != nil {
			rig.close()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer rig.close()
	w.e2e["setup_s"] = median(setups)

	n := int64(len(rig.tab.routes))
	phase2 := int64(len(rig.sched))
	w.attempted = 2*n + phase2
	rig.measuring.Store(true)
	rt0 := readRuntime()

	// Phase 1: closed-loop table load.
	p1 := time.Now()
	phase1 := w.spans.reserve()
	cpu0 := cpuTime()
	var waited time.Duration
	sent := [2]int{}
load:
	for sent[0] < int(n) || sent[1] < int(n) {
		for p := 0; p < 2; p++ {
			if sent[p] >= int(n) {
				continue
			}
			wait, err := rig.awaitWindow(int64(sent[0] + sent[1]))
			waited += wait
			if err != nil {
				break load
			}
			j := min(sent[p]+loadChunk, int(n))
			ws := time.Now()
			if _, err := rig.peers[p].conn.Write(rig.load[p].msgs(sent[p], j)); err != nil {
				break load
			}
			w.spans.add("gen.write", phase1, ws, time.Now())
			sent[p] = j
		}
	}
	ribDone, collDone, err := rig.settle(2 * n)
	cpu1 := cpuTime()
	if err != nil {
		// The announcements lost here are counted once, after phase 2.
		w.fail("phase 1: %v after %d of %d announcements (%d session drops)", err, rig.in.Value(), 2*n, rig.drops.Load())
		collDone = time.Now()
	}
	loadTime := collDone.Sub(p1)
	w.spans.record(phase1, 0, "live.phase1", p1, collDone)
	w.e2e["updates_per_s"] = float64(2*n) / loadTime.Seconds()
	w.e2e["cpu_us_per_update"] = float64(cpu1-cpu0) / 1e3 / float64(2*n)
	w.layers["gen.window_wait_ratio"] = waited.Seconds() / loadTime.Seconds()
	if !ribDone.IsZero() {
		w.layers["collector.lag_ms"] = float64(collDone.Sub(ribDone)) / 1e6
	}

	// Phase 2: open-loop churn with forged origins.
	late := rig.churnPhase(w)
	detect, missed := rig.detections(w)
	w.failed += missed
	w.e2e["detect_p50_us"] = quantile(detect, 0.5)
	w.e2e["detect_p90_us"] = quantile(detect, 0.9)
	w.layers["detect.p99_us"] = quantile(detect, 0.99)
	w.layers["detect.samples"] = float64(len(detect))
	w.layers["gen.late_p50_us"] = quantile(late, 0.5)
	w.layers["gen.late_p99_us"] = quantile(late, 0.99)
	rt1 := readRuntime()
	rig.measuring.Store(false)

	w.failed += rig.drops.Load()
	w.layers["session.drops"] = float64(rig.drops.Load())
	rig.checkGates(w)
	w.e2e["heap_mib"] = heapMiB()

	goLayer(w.layers, rt0, rt1, float64(2*n+phase2))
	rig.speakerLayers(w)
	if w.traced() {
		liveLayerReplays(w, rig.tab, &rig.load[0])
	}
	return nil
}

// awaitWindow blocks until both backlogs are under their windows and
// returns how long it waited.
func (r *liveRig) awaitWindow(sent int64) (time.Duration, error) {
	var start time.Time
	for {
		ingest := sent - int64(r.in.Value())
		if ingest < ingestWindow && r.exportBacklog() < exportWindow {
			if start.IsZero() {
				return 0, nil
			}
			return time.Since(start), nil
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) > stallTimeout || r.drops.Load() > 0 {
			return time.Since(start), errStalled
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// churnPhase sends phase 2 on its fixed schedule and returns each
// message's lateness in microseconds: the instant its bytes were handed
// to the socket minus its due time.
func (r *liveRig) churnPhase(w *run) []float64 {
	interval := float64(time.Second) / liveChurnRate
	due := func(k int) time.Duration { return time.Duration(float64(k) * interval) }
	late := make([]float64, 0, len(r.sched))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Shrink this thread's timer slack from the kernel's 50 µs default
	// to 1 µs, so nanosleep wakes close to the due time. Best effort:
	// with the default the schedule only runs later.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	start := time.Now()
	r.phase2 = w.spans.reserve()
	base := int64(start.Sub(r.t0))
	cursor := [2]int{}
	for k := 0; k < len(r.sched); {
		now := time.Since(start)
		if d := due(k); d > now {
			sleepPrecise(d - now)
			continue
		}
		j := k
		for j < len(r.sched) && due(j) <= now {
			j++
		}
		var count [2]int
		for i := k; i < j; i++ {
			m := r.sched[i]
			count[m.peer]++
			if m.forged >= 0 {
				r.dueAt[m.forged] = base + int64(due(i))
			}
		}
		ws := time.Now()
		for p := 0; p < 2; p++ {
			if count[p] == 0 {
				continue
			}
			// A failed write is a dropped session, counted by OnPeerDown.
			_, _ = r.peers[p].conn.Write(r.churn[p].msgs(cursor[p], cursor[p]+count[p]))
			cursor[p] += count[p]
		}
		wrote := time.Since(start)
		w.spans.add("gen.write", r.phase2, ws, time.Now())
		for i := k; i < j; i++ {
			late = append(late, float64(wrote-due(i))/1e3)
		}
		k = j
	}
	w.spans.record(r.phase2, 0, "live.phase2", start, time.Now())
	return late
}

// sleepPrecise blocks the calling OS thread in nanosleep(2) for d.
// time.Sleep cannot keep a 50 µs schedule: the runtime's epoll wait
// rounds timeouts under a millisecond up to one, which would make the
// generator's own lateness most of the measured detection latency.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// An interrupted sleep only wakes early; the caller re-checks the
	// schedule.
	_ = syscall.Nanosleep(&ts, nil)
}

// detections waits for the forged messages' alarms (each up to its
// deadline) and for the speaker to drain, then returns the detection
// latencies in microseconds and the number of forged messages missed.
func (r *liveRig) detections(w *run) ([]float64, int64) {
	deadline := time.Now().Add(alarmDeadline)
	for time.Now().Before(deadline) {
		all := true
		for f := range r.alarmAt {
			if r.alarmAt[f].Load() == 0 {
				all = false
				break
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	total := 2*int64(len(r.tab.routes)) + int64(len(r.sched))
	if _, _, err := r.settle(total); err != nil {
		w.fail("phase 2: %v after %d of %d UPDATEs", err, r.in.Value(), total)
		w.failed += total - int64(r.in.Value())
	}
	var detect []float64
	var missed int64
	limit := int64(alarmDeadline)
	for f := range r.alarmAt {
		at := r.alarmAt[f].Load()
		if at == 0 || at-r.dueAt[f] > limit {
			missed++
			continue
		}
		detect = append(detect, float64(at-r.dueAt[f])/1e3)
		w.spans.add("speaker.on_alarm", r.phase2, r.t0.Add(time.Duration(r.dueAt[f])), r.t0.Add(time.Duration(at)))
	}
	if missed > 0 {
		w.fail("%d of %d forged messages raised no alarm within %s", missed, len(r.alarmAt), alarmDeadline)
	}
	return detect, missed
}

// checkGates compares the validator's Loc-RIB, the collector's view and
// the alarms with what the inputs imply. A forged prefix whose covering
// MOASRR record excludes its origin is expected to vanish: the
// conflict makes the speaker resolve it through the store's covering
// lookup and purge the legitimate routes too (README, findings).
func (r *liveRig) checkGates(w *run) {
	routes := r.tab.routes
	isForged := make([]bool, len(routes))
	purged := make([]bool, len(routes))
	want := len(routes)
	for _, i := range r.forged {
		isForged[i] = true
		if r.tab.coverExcludes(i) {
			purged[i] = true
			want--
		}
	}
	w.layers["speaker.cover_purged"] = float64(len(routes) - want)
	bad := 0
	if got := r.spk.Table().Len(); got != want {
		w.fail("Loc-RIB holds %d prefixes, want %d", got, want)
		bad++
	}
	view := r.coll.RoutesFrom(validatorAS)
	if len(view) != want {
		w.fail("collector view holds %d prefixes, want %d", len(view), want)
		bad++
	}
	for i := range routes {
		rt := &routes[i]
		best := r.spk.Table().Best(rt.prefix)
		path, inView := view[rt.prefix]
		if purged[i] {
			if best != nil || inView {
				bad++
			}
			continue
		}
		if best == nil || !originOK(rt, best.OriginAS(), isForged[i]) {
			bad++
			continue
		}
		if o, _ := path.Origin(); !inView || !originOK(rt, o, isForged[i]) {
			bad++
		}
	}
	if bad > 0 {
		w.fail("%d prefixes missing or with a wrong origin in the Loc-RIB or the collector view", bad)
	}
	for f := range r.alarmN {
		if c := r.alarmN[f].Load(); c > 1 {
			w.fail("forged prefix %s alarmed %d times", routes[r.forged[f]].prefix, c)
			bad++
		}
	}
	if got, want := r.benign.Load(), int64(len(r.tab.implicit)); got != want {
		w.fail("%d benign multi-origin alarms, want %d", got, want)
		bad++
	}
	w.failed += int64(bad)
}

// originOK reports whether origin may be the installed one for rt: its
// own origins, and never a forged one.
func originOK(rt *route, origin astypes.ASN, forged bool) bool {
	if forged {
		return origin == rt.originA
	}
	return origin == rt.originA || origin == rt.originB
}

// speakerLayers reads the per-layer figures the program keeps itself:
// obs stage histograms and registry counters.
func (r *liveRig) speakerLayers(w *run) {
	obsLayers(w.layers, r.obs)
	in := float64(r.in.Value())
	if in > 0 {
		w.layers["speaker.export_ratio"] = float64(r.out.Value()) / in
	}
	w.layers["speaker.rejected"] = float64(r.reg.Counter("speaker_routes_rejected_total", "").Value())
	w.layers["core.alarms"] = float64(r.reg.Counter("speaker_moas_alarms_total", "").Value())
	w.layers["telemetry.series"] = float64(seriesCount(r.reg))
	w.layers["trace.alarm_bundles"] = float64(r.rec.AlarmCount())
}

// obsLayers copies p50/p99 of every obs stage as obs.<stage>.p50_ns.
func obsLayers(layers map[string]float64, rec *obs.Recorder) {
	for _, s := range rec.Snapshot() {
		layers["obs."+s.Stage+".p50_ns"] = float64(s.P50Ns)
		layers["obs."+s.Stage+".p99_ns"] = float64(s.P99Ns)
	}
}

func seriesCount(reg *telemetry.Registry) int {
	n := 0
	for _, f := range reg.Gather() {
		n += len(f.Series)
	}
	return n
}
