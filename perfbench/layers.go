package main

import (
	"runtime"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/rib"
	"repro/internal/wire"
)

// layerReplayLimit caps how many routes a layer replay times, so the
// traced run's replays stay short next to the workload itself.
const layerReplayLimit = 100000

// liveLayerReplays times single layers of the live path on the
// workload's own inputs, outside the running pipeline: the codec over
// peer A's table stream, the MOAS checker and the RIB over both peers'
// announcements, ROV lookups, and collector ingestion.
func liveLayerReplays(w *run, tab *table, s *stream) {
	start := time.Now()
	parent := w.spans.reserve()
	routes := tab.routes
	if len(routes) > layerReplayLimit {
		routes = routes[:layerReplayLimit]
	}
	wireLayer(w, parent, s, len(routes))
	checkerLayer(w, parent, routes)
	ribLayer(w, parent, routes)
	rpkiLayer(w, parent, tab, routes)
	injectLayer(w, parent, routes)
	w.spans.record(parent, 0, "layers", start, time.Now())
}

// wireLayer times decoding the first n messages of s and re-encoding
// them, as mean nanoseconds per message.
func wireLayer(w *run, parent uint64, s *stream, n int) {
	n = min(n, s.len())
	var dec wire.Decoder
	updates := make([]*wire.Update, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		m, err := dec.Decode(s.msgs(i, i+1))
		if err != nil {
			w.fail("wire replay: decode message %d: %v", i, err)
			return
		}
		if u, ok := m.(*wire.Update); ok {
			// The decoder reuses its scratch Update; keep a copy for the
			// encode replay.
			cp := *u
			cp.NLRI = append([]astypes.Prefix(nil), u.NLRI...)
			cp.Attrs.ASPath = u.Attrs.ASPath.Clone()
			cp.Attrs.Communities = append([]astypes.Community(nil), u.Attrs.Communities...)
			updates = append(updates, &cp)
		}
	}
	decodeEnd := time.Now()
	w.layers["wire.decode_ns"] = float64(decodeEnd.Sub(start)) / float64(n)
	w.spans.add("layer.wire.decode", parent, start, decodeEnd)
	var buf []byte
	start = time.Now()
	for _, u := range updates {
		var err error
		if buf, err = wire.AppendMessage(buf[:0], u); err != nil {
			w.fail("wire replay: encode: %v", err)
			return
		}
	}
	end := time.Now()
	w.layers["wire.encode_ns"] = float64(end.Sub(start)) / float64(len(updates))
	w.spans.add("layer.wire.encode", parent, start, end)
}

// checkerLayer times core.Checker.Check on a fresh checker over both
// peers' announcements of routes.
func checkerLayer(w *run, parent uint64, routes []route) {
	c := core.NewChecker()
	var t timer
	start := time.Now()
	for i := range routes {
		r := &routes[i]
		for _, a := range []core.Announcement{
			{Prefix: r.prefix, Path: r.pathA, Communities: r.list.Communities(), FromPeer: peerA},
			{Prefix: r.prefix, Path: r.pathB, Communities: r.list.Communities(), FromPeer: peerB},
		} {
			t0 := time.Now()
			c.Check(a)
			t.since(t0)
		}
	}
	w.spans.add("layer.core.check", parent, start, time.Now())
	w.layers["core.check_ns_p50"] = t.q(0.5)
	w.layers["core.check_ns_p99"] = t.q(0.99)
}

// ribLayer times rib.Table.UpdateOwned on a fresh table over both
// peers' routes, the heap the table holds per route, and one
// RoutesFrom scan of a peer's Adj-RIB-In (what the speaker runs per
// peer for every conflict its resolver answers).
func ribLayer(w *run, parent uint64, routes []route) {
	before := liveHeap()
	tab := rib.NewTable()
	var t timer
	start := time.Now()
	for i := range routes {
		r := &routes[i]
		for _, src := range []struct {
			peer astypes.ASN
			path astypes.ASPath
		}{{peerA, r.pathA}, {peerB, r.pathB}} {
			route := &rib.Route{
				Prefix:      r.prefix,
				Path:        src.path.Clone(),
				Origin:      wire.OriginIGP,
				NextHop:     0x0a000001,
				LocalPref:   rib.DefaultLocalPref,
				Communities: r.list.Communities(),
				FromPeer:    src.peer,
			}
			t0 := time.Now()
			tab.UpdateOwned(route)
			t.since(t0)
		}
	}
	w.spans.add("layer.rib.update", parent, start, time.Now())
	w.layers["rib.update_ns_p50"] = t.q(0.5)
	w.layers["rib.update_ns_p99"] = t.q(0.99)
	w.layers["rib.bytes_per_route"] = float64(liveHeap()-before) / float64(2*len(routes))
	start = time.Now()
	tab.RoutesFrom(peerA)
	end := time.Now()
	w.spans.add("layer.rib.routes_from", parent, start, end)
	w.layers["rib.routes_from_ms"] = float64(end.Sub(start)) / 1e6
	runtime.KeepAlive(tab)
}

// rpkiLayer times ROV lookups of each route's origin.
func rpkiLayer(w *run, parent uint64, tab *table, routes []route) {
	store := tab.roaStore()
	var t timer
	start := time.Now()
	for i := range routes {
		t0 := time.Now()
		store.Validate(routes[i].prefix, routes[i].originA)
		t.since(t0)
	}
	w.spans.add("layer.rpki.validate", parent, start, time.Now())
	w.layers["rpki.validate_ns_p50"] = t.q(0.5)
}

// injectLayer times collector.Inject of peer A's announcements into a
// fresh collector.
func injectLayer(w *run, parent uint64, routes []route) {
	c := collector.New(collector.Config{RouterID: 6447})
	defer c.Close()
	var t timer
	start := time.Now()
	for i := range routes {
		r := &routes[i]
		u := update(r.prefix, r.pathA, r.list)
		t0 := time.Now()
		c.Inject(peerA, u)
		t.since(t0)
	}
	w.spans.add("layer.collector.inject", parent, start, time.Now())
	w.layers["collector.inject_ns_p50"] = t.q(0.5)
	w.layers["collector.inject_ns_p99"] = t.q(0.99)
}

// liveHeap is the heap in use right after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
