package main

import (
	"time"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/xrand"
)

// epoch anchors every timestamp the benchmark takes; nanotime reads the
// monotonic clock relative to it.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// span is one timed phase: a call into a layer made from the
// benchmark's own code. Parent is the index of the enclosing span, -1
// at the top.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps the spans of a run in memory, to be written out when the
// run ends. A nil *tracer records nothing, so untraced runs call the
// same begin/end pairs at no cost. Spans are opened and closed only by
// the benchmark's main goroutine; phases that run on other goroutines
// are added afterwards with add.
type tracer struct {
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: nanotime()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = nanotime()
	t.open = t.open[:len(t.open)-1]
}

// add records a finished span under the currently open one.
func (t *tracer) add(name string, start, end int64) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: start, End: end})
}

// total sums the durations of every span with the given name, in
// seconds.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.seconds()
		}
	}
	return s
}

// sampleEvery sets how often the probes time a call: every call is
// counted, one in sampleEvery Choose calls is timed together with the
// lookups nested in it, and every lazy fill is timed. Timing every call
// costs two clock reads per call, which on the fig8 workloads' millions
// of Choose calls per round would be a large share of the round.
const sampleEvery = 16

// pathProbe wraps a path DB where the simulators take a PathProvider.
// It counts lookups, and tells a lazy fill (a pair the DB did not hold
// yet, so Paths runs the selector) from a plain lookup by keeping its
// own bitmap of pairs known to be stored: no extra DB call, no lock.
// Used by one simulator goroutine at a time.
type pathProbe struct {
	db   *paths.DB
	n    int
	seen []uint64

	lookups, fills int64
	fillNS         int64
	// timing is set by the state probe during a sampled Choose; the
	// lookups made then are timed into timedLookups/lookupNS, and every
	// timed call into nestedNS.
	timing                 bool
	timedLookups, lookupNS int64
	nestedNS               int64
}

// newPathProbe wraps db; stored lists the pairs the DB already holds
// (its eager build or cache load), nil for a lazy DB.
func newPathProbe(db *paths.DB, stored []paths.Pair) *pathProbe {
	n := db.Graph().NumNodes()
	p := &pathProbe{db: db, n: n, seen: make([]uint64, (n*n+63)/64)}
	for _, pr := range stored {
		p.mark(pr.Src, pr.Dst)
	}
	return p
}

func (p *pathProbe) mark(s, d graph.NodeID) bool {
	i := int(s)*p.n + int(d)
	w, b := i>>6, uint64(1)<<(i&63)
	was := p.seen[w]&b != 0
	p.seen[w] |= b
	return was
}

// Paths implements the simulators' PathProvider.
func (p *pathProbe) Paths(s, d graph.NodeID) []graph.Path {
	stored := p.mark(s, d)
	if stored {
		p.lookups++
		if !p.timing {
			return p.db.Paths(s, d)
		}
	}
	t0 := nanotime()
	ps := p.db.Paths(s, d)
	dt := nanotime() - t0
	if stored {
		p.timedLookups++
		p.lookupNS += dt
	} else {
		p.fills++
		p.fillNS += dt
	}
	if p.timing {
		p.nestedNS += dt
	}
	return ps
}

// lookupEstNS scales the timed lookups' time to all lookups.
func (p *pathProbe) lookupEstNS() int64 {
	if p.timedLookups == 0 {
		return 0
	}
	return p.lookupNS * p.lookups / p.timedLookups
}

// mechProbe wraps a routing mechanism; the state it hands the simulator
// counts every Choose call and times a sample of them.
type mechProbe struct {
	routing.Mechanism
	paths *pathProbe
	st    *stateProbe
}

func (m *mechProbe) NewState() routing.State {
	m.st = &stateProbe{inner: m.Mechanism.NewState(), paths: m.paths}
	return m.st
}

// stateProbe counts Choose calls and the hops of the paths chosen, and
// times every sampleEvery-th call, separating the time of the lookups
// nested in it (routing's self time is the rest).
type stateProbe struct {
	inner   routing.State
	paths   *pathProbe
	chooses int64
	hops    int64

	sampled, sampledSelfNS int64
}

func (s *stateProbe) Choose(v *routing.View, src, dst graph.NodeID, load routing.LoadEstimator, rng *xrand.RNG) (graph.Path, int) {
	s.chooses++
	var p graph.Path
	var i int
	if s.chooses%sampleEvery != 0 {
		p, i = s.inner.Choose(v, src, dst, load, rng)
	} else {
		s.paths.timing = true
		n0 := s.paths.nestedNS
		t0 := nanotime()
		p, i = s.inner.Choose(v, src, dst, load, rng)
		dt := nanotime() - t0
		s.paths.timing = false
		s.sampled++
		s.sampledSelfNS += dt - (s.paths.nestedNS - n0)
	}
	if len(p) > 1 {
		s.hops += int64(len(p) - 1)
	}
	return p, i
}

// selfEstNS scales the sampled calls' self time to all calls.
func (s *stateProbe) selfEstNS() int64 {
	if s.sampled == 0 {
		return 0
	}
	return s.sampledSelfNS * s.chooses / s.sampled
}

// probeSim wraps db and mech for one traced simulator run; stored is
// passed to newPathProbe. With t == nil it returns them unwrapped and a
// nil probe.
func probeSim(t *tracer, db *paths.DB, stored []paths.Pair, mech routing.Mechanism) (routing.PathProvider, routing.Mechanism, *mechProbe) {
	if t == nil {
		return db, mech, nil
	}
	m := &mechProbe{Mechanism: mech, paths: newPathProbe(db, stored)}
	return m.paths, m, m
}

// layerCounts accumulates, over the traced rounds of a run, the time and
// work of the layers below the benchmark. Times of sampled calls are
// already scaled to all calls.
type layerCounts struct {
	rounds int

	simNS, simCycles, simPackets int64 // flitsim: inclusive span time
	appNS, appPackets            int64 // appsim: inclusive span time
	flitChooseNS, flitHops       int64 // Choose, nested lookups included
	appChooseNS, appHops         int64
	chooses, routingNS           int64
	lookups, lookupNS            int64
	fills, fillNS                int64
	modelNS                      int64
	serveNS                      int64 // serve-mixed: whole rounds
}

// addSim folds one simulator run's probe into the totals; app selects
// the appsim columns over flitsim's. Every path lookup happens inside a
// Choose, so Choose's inclusive time is routing's self time plus the
// lookups and fills.
func (c *layerCounts) addSim(p *mechProbe, app bool, spanNS int64) {
	if p == nil {
		return
	}
	st := p.st
	routing, lookup := st.selfEstNS(), p.paths.lookupEstNS()
	choose := routing + lookup + p.paths.fillNS
	if app {
		c.appNS += spanNS
		c.appChooseNS += choose
		c.appHops += st.hops
	} else {
		c.simNS += spanNS
		c.flitChooseNS += choose
		c.flitHops += st.hops
	}
	c.chooses += st.chooses
	c.routingNS += routing
	c.lookups += p.paths.lookups
	c.lookupNS += lookup
	c.fills += p.paths.fills
	c.fillNS += p.paths.fillNS
}
