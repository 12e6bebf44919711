package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// MRT archive shape: a TABLE_DUMP_V2 RIB of mrtPrefixes prefixes from
// peers A and B, then mrtUpdates BGP4MP UPDATEs of path churn, one in
// mrtForgedEvery a forged origin for a distinct prefix. One replay of
// it takes under a second on the reference machine, so a run times
// many replays and reports their medians.
const (
	mrtPrefixes    = 100000
	mrtUpdates     = 50000
	mrtForgedEvery = 40
)

// alarmKey identifies one expected monitor alarm.
type alarmKey struct {
	prefix astypes.Prefix
	origin astypes.ASN
}

// mrtInput is the replayable archive and what replaying it must raise.
type mrtInput struct {
	tab     *table
	archive []byte
	// announcements is the number of announced (prefix, path) pairs in
	// the archive: RIB entries plus UPDATE NLRI.
	announcements int
	want          map[alarmKey]bool
	roas          *rpki.Store
	// forged[span] marks the records carrying a forged origin.
	forged []bool
}

// buildArchive writes the archive with mrt.Writer.
func buildArchive(seed int64) (*mrtInput, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mrtInput{tab: newTable(rng, mrtPrefixes), want: make(map[alarmKey]bool)}
	in.roas = in.tab.roaStore()
	var buf bytes.Buffer
	wr := mrt.NewWriter(&buf)
	t := time.Unix(1700000000, 0)
	peers := []mrt.Peer{
		{BGPID: uint32(peerA), IP: 0x0a000001, AS: uint32(peerA)},
		{BGPID: uint32(peerB), IP: 0x0a000002, AS: uint32(peerB)},
	}
	if err := wr.WritePeerIndex(t, 6447, "perfbench", peers); err != nil {
		return nil, err
	}
	for i := range in.tab.routes {
		r := &in.tab.routes[i]
		comms := r.list.Communities()
		entries := []mrt.RIBEntry{
			{PeerIndex: 0, PeerAS: peerA, Origin: wire.OriginIGP, Path: r.pathA, NextHop: 0x0a000001, Communities: comms},
			{PeerIndex: 1, PeerAS: peerB, Origin: wire.OriginIGP, Path: r.pathB, NextHop: 0x0a000002, Communities: comms},
		}
		if err := wr.WriteRIB(t, uint32(i), r.prefix, entries); err != nil {
			return nil, err
		}
	}
	in.announcements = 2 * len(in.tab.routes)
	// Entry A is checked first, so an implicit multi-origin prefix
	// alarms on entry B's origin.
	for _, i := range in.tab.implicit {
		r := &in.tab.routes[i]
		in.want[alarmKey{r.prefix, r.originB}] = true
	}
	// Record spans count from 1: the peer index, then one RIB record
	// per prefix, then the UPDATEs.
	firstUpdate := 2 + len(in.tab.routes)
	in.forged = make([]bool, firstUpdate+mrtUpdates)
	nForged := mrtUpdates / mrtForgedEvery
	forged := in.tab.single[:nForged]
	pool := in.tab.single[nForged:]
	f := 0
	for k := 0; k < mrtUpdates; k++ {
		t = t.Add(time.Millisecond)
		peer, ip := peerA, uint32(0x0a000001)
		if k%2 == 1 {
			peer, ip = peerB, 0x0a000002
		}
		var u *wire.Update
		if k%mrtForgedEvery == mrtForgedEvery/2 && f < nForged {
			r := &in.tab.routes[forged[f]]
			f++
			origin := forgedOrigin(rng, r)
			peer, ip = peerB, 0x0a000002
			u = update(r.prefix, drawPath(rng, peerB, origin), core.List{})
			in.want[alarmKey{r.prefix, origin}] = true
			in.forged[firstUpdate+k] = true
		} else {
			r := &in.tab.routes[pool[rng.Intn(len(pool))]]
			u = update(r.prefix, drawPath(rng, peer, r.originA), core.List{})
		}
		if err := wr.WriteUpdate(t, peer, collector.CollectorASN, ip, 0x0a0000fe, u); err != nil {
			return nil, err
		}
		in.announcements++
	}
	in.archive = buf.Bytes()
	return in, nil
}

// replayer is one fresh collector and monitor wired the way
// cmd/moas-collector wires an MRT replay.
type replayer struct {
	reg *telemetry.Registry
	obs *obs.Recorder
	rec *trace.Recorder
	c   *collector.Collector
	mon *monitor.Monitor
}

func newReplayer(roas *rpki.Store) *replayer {
	r := &replayer{
		reg: telemetry.NewRegistry("moas"),
		obs: obs.NewRecorder(),
		rec: trace.NewRecorder(256),
	}
	r.c = collector.New(collector.Config{RouterID: 6447, Telemetry: r.reg, Trace: r.rec, Obs: r.obs})
	r.mon = monitor.New(monitor.WithTelemetry(r.reg), monitor.WithObs(r.obs),
		monitor.WithTrace(r.rec), monitor.WithRPKI(roas))
	return r
}

// replay streams the archive through the monitor, mirroring every
// record into the collector through its Inject hook exactly as
// cmd/moas-collector's replayMRT does. It returns, per forged record,
// the time from the hook seeing it to the hook seeing the next record:
// the replay carries the forged record through the collector mirror
// and the MOAS check that alarms, then decodes the next record. With
// inject non-nil, each Inject call is also timed into it.
func (r *replayer) replay(in *mrtInput, inject *timer) (monitor.ReplayResult, []float64, error) {
	var u wire.Update
	var detect []float64
	var forgedAt time.Time
	injectOne := func(peer astypes.ASN, u *wire.Update) {
		if inject == nil {
			r.c.Inject(peer, u)
			return
		}
		t0 := time.Now()
		r.c.Inject(peer, u)
		inject.since(t0)
	}
	res, err := r.mon.ReplayMRTFunc("mrt:perfbench", bytes.NewReader(in.archive), func(rec *mrt.Record) {
		if !forgedAt.IsZero() {
			detect = append(detect, float64(time.Since(forgedAt))/1e3)
			forgedAt = time.Time{}
		}
		if rec.Span < uint64(len(in.forged)) && in.forged[rec.Span] {
			forgedAt = time.Now()
		}
		switch rec.Kind {
		case mrt.KindRIB:
			for i := range rec.Entries {
				e := &rec.Entries[i]
				u = wire.Update{NLRI: []astypes.Prefix{rec.Prefix}}
				u.Attrs.ASPath = e.Path
				u.Attrs.Communities = e.Communities
				u.Attrs.HasOrigin = true
				u.Attrs.Origin = e.Origin
				u.Attrs.HasNextHop = true
				u.Attrs.NextHop = e.NextHop
				injectOne(e.PeerAS, &u)
			}
		case mrt.KindMessage:
			if rec.Update != nil {
				injectOne(rec.PeerAS, rec.Update)
			}
		}
	})
	return res, detect, err
}

// check compares the monitor's alarms and the collector's view with
// what the archive implies, returning the number of mismatches.
func (r *replayer) check(w *run, in *mrtInput) int64 {
	var bad int64
	alarms := r.mon.Alarms()
	got := make(map[alarmKey]bool, len(alarms))
	for _, a := range alarms {
		k := alarmKey{a.Conflict.Prefix, a.Conflict.Origin}
		if got[k] || !in.want[k] {
			bad++
		}
		got[k] = true
	}
	for k := range in.want {
		if !got[k] {
			bad++
		}
	}
	for i, peer := range []astypes.ASN{peerA, peerB} {
		if n := len(r.c.RoutesFrom(peer)); n != len(in.tab.routes) {
			w.fail("collector holds %d prefixes from peer %d, want %d", n, i, len(in.tab.routes))
			bad++
		}
	}
	if bad > 0 {
		w.fail("monitor raised %d alarms, want %d; %d mismatches", len(alarms), len(in.want), bad)
	}
	return bad
}

func runMRTReplay(w *run) error {
	var in *mrtInput
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = buildArchive(w.seed); err != nil {
			return fmt.Errorf("build archive: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	w.e2e["setup_s"] = median(setups)

	var rates, cpus, detect []float64
	var inject timer
	var injectp *timer
	if w.traced() {
		injectp = &inject
	}
	var last *replayer
	rt0 := readRuntime()
	deadline := time.Now().Add(time.Duration(w.seconds * float64(time.Second)))
	for len(rates) < 3 || time.Now().Before(deadline) {
		r := newReplayer(in.roas)
		start := time.Now()
		cpu0 := cpuTime()
		res, d, err := r.replay(in, injectp)
		cpu1 := cpuTime()
		end := time.Now()
		if err != nil {
			r.c.Close()
			return fmt.Errorf("replay: %w", err)
		}
		w.spans.add("monitor.replay", 0, start, end)
		w.attempted += int64(in.announcements)
		if res.Malformed > 0 {
			w.fail("%d malformed records", res.Malformed)
			w.failed += int64(res.Malformed)
		}
		w.failed += r.check(w, in)
		r.c.Close()
		rates = append(rates, float64(in.announcements)/end.Sub(start).Seconds())
		cpus = append(cpus, float64(cpu1-cpu0)/1e3/float64(in.announcements))
		detect = append(detect, d...)
		last = r
	}
	rt1 := readRuntime()
	w.e2e["updates_per_s"] = median(rates)
	w.e2e["cpu_us_per_update"] = median(cpus)
	w.e2e["detect_p50_us"] = quantile(detect, 0.5)
	w.e2e["detect_p90_us"] = quantile(detect, 0.9)
	w.layers["detect.p99_us"] = quantile(detect, 0.99)
	w.layers["detect.samples"] = float64(len(detect))
	w.e2e["heap_mib"] = heapMiB()

	goLayer(w.layers, rt0, rt1, float64(len(rates)*in.announcements))
	obsLayers(w.layers, last.obs)
	w.layers["core.alarms"] = float64(len(last.mon.Alarms()))
	w.layers["telemetry.series"] = float64(seriesCount(last.reg))
	w.layers["trace.alarm_bundles"] = float64(last.rec.AlarmCount())
	if w.traced() {
		w.layers["collector.inject_ns_p50"] = inject.q(0.5)
		w.layers["collector.inject_ns_p99"] = inject.q(0.99)
		mrtLayerReplays(w, in)
	}
	return nil
}

// mrtLayerReplays times the archive reader and the monitor on their
// own: mrt.Reader.Next over the whole archive, then each announcement
// into a fresh monitor through the stamped entry points the replay uses.
func mrtLayerReplays(w *run, in *mrtInput) {
	layersStart := time.Now()
	parent := w.spans.reserve()
	defer func() { w.spans.record(parent, 0, "layers", layersStart, time.Now()) }()
	rd, err := mrt.NewReader(bytes.NewReader(in.archive))
	if err != nil {
		w.fail("mrt reader: %v", err)
		return
	}
	var next timer
	type entry struct {
		prefix astypes.Prefix
		path   astypes.ASPath
		comms  []astypes.Community
	}
	var entries []entry
	start := time.Now()
	for {
		t0 := time.Now()
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.fail("mrt reader: %v", err)
			return
		}
		next.since(t0)
		switch rec.Kind {
		case mrt.KindRIB:
			for _, e := range rec.Entries {
				entries = append(entries, entry{rec.Prefix, e.Path.Clone(), append([]astypes.Community(nil), e.Communities...)})
			}
		case mrt.KindMessage:
			if u := rec.Update; u != nil {
				for _, p := range u.NLRI {
					entries = append(entries, entry{p, u.Attrs.ASPath.Clone(), append([]astypes.Community(nil), u.Attrs.Communities...)})
				}
			}
		}
	}
	w.spans.add("layer.mrt.next", parent, start, time.Now())
	w.layers["mrt.next_ns_p50"] = next.q(0.5)

	rec := obs.NewRecorder()
	mon := monitor.New(monitor.WithObs(rec), monitor.WithRPKI(in.roas))
	var observe timer
	start = time.Now()
	for i := range entries {
		e := &entries[i]
		st := rec.Start(uint64(i + 1))
		t0 := time.Now()
		mon.ObserveEntryStamp("mrt:perfbench", e.prefix, e.path, e.comms, &st)
		observe.since(t0)
	}
	w.spans.add("layer.monitor.observe", parent, start, time.Now())
	w.layers["monitor.observe_ns_p50"] = observe.q(0.5)
	w.layers["monitor.observe_ns_p99"] = observe.q(0.99)

	routes := in.tab.routes
	if len(routes) > layerReplayLimit {
		routes = routes[:layerReplayLimit]
	}
	checkerLayer(w, parent, routes)
	rpkiLayer(w, parent, in.tab, routes)
}
