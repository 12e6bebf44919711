package main

import (
	"math/rand"
	"sort"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/rpki"
	"repro/internal/wire"
)

// AS numbers of the benchmark's fixed roles. Every generated AS number
// stays below 65536 so the 2-octet wire codec carries it unchanged, and
// none of the random transit or origin ranges can collide with a role.
const (
	validatorAS astypes.ASN = 100
	peerA       astypes.ASN = 64601
	peerB       astypes.ASN = 64602

	transitLo = 1000
	transitHi = 3999
	originLo  = 4000
	originHi  = 63999
)

// Input shape shared by the live and mrt-replay tables.
const (
	// multiOriginShare of the prefixes are announced by peer B with a
	// different origin than peer A. Most of them carry an explicit MOAS
	// list naming both origins, so they raise no alarm.
	multiOriginShare = 0.01
	// implicitMOAS multi-origin prefixes carry no list: each raises one
	// benign alarm that the MOASRR store resolves. The count is fixed
	// and small because every resolved conflict makes the speaker scan
	// each peer's whole Adj-RIB-In (see README, findings).
	implicitMOAS = 8
	// roaShare of the prefixes are covered by a ROA for their origins.
	roaShare = 0.5
)

// route is one prefix of the synthetic table, as peers A and B announce
// it during the table load.
type route struct {
	prefix  astypes.Prefix
	originA astypes.ASN
	originB astypes.ASN // differs from originA on multi-origin prefixes
	pathA   astypes.ASPath
	pathB   astypes.ASPath
	list    core.List // explicit MOAS list; empty on single-origin and implicit prefixes
	roa     bool
}

func (r *route) multiOrigin() bool { return r.originA != r.originB }

// table is one seeded synthetic full table.
type table struct {
	routes []route
	// implicit indexes the multi-origin routes announced without lists.
	implicit []int
	// single indexes the single-origin routes, in random order: churn
	// and forged announcements draw from it.
	single []int
}

// newTable draws n distinct prefixes and their announcements from rng.
// Prefixes are allocated here rather than by routegen, whose allocator
// wraps after 65,536 prefixes and would hand out duplicates at
// full-table sizes.
func newTable(rng *rand.Rand, n int) *table {
	t := &table{routes: make([]route, n)}
	seen := make(map[astypes.Prefix]struct{}, n)
	for i := range t.routes {
		r := &t.routes[i]
		r.prefix = drawPrefix(rng, seen)
		r.originA = drawOrigin(rng)
		r.originB = r.originA
		if rng.Float64() < multiOriginShare {
			for r.originB == r.originA {
				r.originB = drawOrigin(rng)
			}
		}
		r.pathA = drawPath(rng, peerA, r.originA)
		r.pathB = drawPath(rng, peerB, r.originB)
		r.roa = rng.Float64() < roaShare
	}
	var multi []int
	for i := range t.routes {
		if t.routes[i].multiOrigin() {
			multi = append(multi, i)
		} else {
			t.single = append(t.single, i)
		}
	}
	// The implicit ones sit at evenly spaced points of the load order:
	// the speaker's cost to resolve one grows with the table loaded so
	// far, so fixed positions make that cost the same for every seed.
	implicit := make(map[int]bool, implicitMOAS)
	for k := 0; k < implicitMOAS && len(multi) > 0; k++ {
		target := (2*k + 1) * n / (2 * implicitMOAS)
		j := sort.SearchInts(multi, target)
		for j < len(multi) && implicit[multi[j]] {
			j++
		}
		if j < len(multi) {
			implicit[multi[j]] = true
			t.implicit = append(t.implicit, multi[j])
		}
	}
	for _, i := range multi {
		if !implicit[i] {
			r := &t.routes[i]
			r.list = core.NewList(r.originA, r.originB)
		}
	}
	rng.Shuffle(len(t.single), func(i, j int) { t.single[i], t.single[j] = t.single[j], t.single[i] })
	return t
}

// drawPrefix returns a prefix not in seen (and records it), with the
// length mix of an IPv4 table: mostly /24, the rest /16 to /23.
func drawPrefix(rng *rand.Rand, seen map[astypes.Prefix]struct{}) astypes.Prefix {
	for {
		length := uint8(24)
		if rng.Float64() < 0.45 {
			length = uint8(16 + rng.Intn(8))
		}
		first := uint32(1 + rng.Intn(223)) // 1.0.0.0 up to 223.255.255.255
		addr := first<<24 | uint32(rng.Intn(1<<24))
		addr &= ^uint32(0) << (32 - length)
		p := astypes.Prefix{Addr: addr, Len: length}
		if _, dup := seen[p]; !dup {
			seen[p] = struct{}{}
			return p
		}
	}
}

func drawOrigin(rng *rand.Rand) astypes.ASN {
	return astypes.ASN(originLo + rng.Intn(originHi-originLo+1))
}

// drawPath returns [first, 0-3 transit ASes, origin].
func drawPath(rng *rand.Rand, first, origin astypes.ASN) astypes.ASPath {
	asns := []astypes.ASN{first}
	for k := rng.Intn(4); k > 0; k-- {
		asns = append(asns, astypes.ASN(transitLo+rng.Intn(transitHi-transitLo+1)))
	}
	return astypes.NewSeqPath(append(asns, origin)...)
}

// forgedOrigin draws an origin different from the route's own.
func forgedOrigin(rng *rand.Rand, r *route) astypes.ASN {
	for {
		o := drawOrigin(rng)
		if o != r.originA && o != r.originB {
			return o
		}
	}
}

// update builds the one-prefix UPDATE announcing prefix over path.
func update(prefix astypes.Prefix, path astypes.ASPath, list core.List) *wire.Update {
	return &wire.Update{
		Attrs: wire.PathAttrs{
			HasOrigin:   true,
			Origin:      wire.OriginIGP,
			ASPath:      path,
			HasNextHop:  true,
			NextHop:     0x0a000001,
			Communities: list.Communities(),
		},
		NLRI: []astypes.Prefix{prefix},
	}
}

// roaStore returns the ROAs of the table: each covered prefix is
// authorized for its origins at its own length.
func (t *table) roaStore() *rpki.Store {
	s := rpki.NewStore()
	for i := range t.routes {
		r := &t.routes[i]
		if !r.roa {
			continue
		}
		s.Add(rpki.ROA{Prefix: r.prefix, Origin: r.originA})
		if r.multiOrigin() {
			s.Add(rpki.ROA{Prefix: r.prefix, Origin: r.originB})
		}
	}
	return s
}

// coverExcludes reports whether the longest MOASRR-registered prefix
// covering route i's prefix (the registered prefixes are the implicit
// multi-origin ones, resolved by covering lookup) exists, is not the
// prefix itself, and excludes the route's origin.
func (t *table) coverExcludes(i int) bool {
	r := &t.routes[i]
	var best *route
	for _, j := range t.implicit {
		c := &t.routes[j]
		if c.prefix.Contains(r.prefix) && (best == nil || c.prefix.Len > best.prefix.Len) {
			best = c
		}
	}
	return best != nil && best != r && best.originA != r.originA && best.originB != r.originA
}
