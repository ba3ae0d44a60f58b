package faults

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// RepairConfig tells a State how to recompute a pair's path set when every
// candidate dies: the same selector configuration and seed the pair's
// paths.DB was built with, so repaired paths are exactly what an eager
// build on the degraded graph would have produced.
type RepairConfig struct {
	KSP  ksp.Config
	Seed uint64
}

// repairSource is implemented by path providers (paths.DB) that can tell
// the fault machinery how to recompute a pair's set on a degraded graph.
type repairSource interface {
	Config() ksp.Config
	Seed() uint64
}

// RepairConfigOf extracts a repair recipe from a path provider, or nil
// when the provider cannot supply one (repair is then disabled). Both
// simulators call it when attaching a fault schedule.
func RepairConfigOf(p any) *RepairConfig {
	src, ok := p.(repairSource)
	if !ok {
		return nil
	}
	return &RepairConfig{KSP: src.Config(), Seed: src.Seed()}
}

// State is one simulation run's fault tracker. It applies a Schedule's
// events as the clock advances and answers, in O(1) on the hot path,
// whether a directed link is down and which of a pair's candidate paths
// are still alive.
//
// The liveness cache: per ordered pair, a bitmap with bit i set when
// candidate path i crosses no failed link, stamped with the epoch it was
// computed at. Every fault event bumps the epoch, so stale bitmaps are
// recomputed lazily on next use — O(k · path length) per pair per fault
// event, O(1) otherwise. At most 64 candidates are tracked; later paths
// (far beyond the paper's k = 8) are treated as dead during fault
// episodes.
//
// State is not safe for concurrent use; give each simulator instance its
// own (schedules are immutable and may be shared).
type State struct {
	g      *graph.Graph
	events []Event
	next   int
	policy Policy
	repair *RepairConfig
	maxLen int

	epoch   uint64
	numDown int
	downDir []bool // per directed link id

	live     map[uint64]liveEntry
	repaired map[uint64]repairEntry

	filtered      *graph.Graph
	filteredEpoch uint64
	comp          *ksp.Computer

	tel *telemetry.Collector

	downs, ups, repairs int64
}

type liveEntry struct {
	epoch uint64
	mask  uint64
}

type repairEntry struct {
	epoch uint64
	ps    []graph.Path
}

// NewState builds the per-run tracker. Every scheduled event must
// reference an existing edge of g. repair may be nil, which disables
// path-set recomputation regardless of policy (the path provider is not a
// *paths.DB, so there is no selector config to recompute with). maxLen,
// when positive, discards repaired or fallback paths longer than that
// many hops (the simulators pass their VC budget so a repaired path can
// never exceed the deadlock-freedom allocation).
func NewState(g *graph.Graph, sched *Schedule, policy Policy, repair *RepairConfig, maxLen int) (*State, error) {
	st := &State{
		g:        g,
		events:   sched.Events(),
		policy:   policy,
		repair:   repair,
		maxLen:   maxLen,
		downDir:  make([]bool, g.NumDirectedLinks()),
		live:     make(map[uint64]liveEntry),
		repaired: make(map[uint64]repairEntry),
	}
	if policy.NoRepair {
		st.repair = nil
	}
	for _, e := range st.events {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("faults: scheduled event %v references a non-edge", e)
		}
	}
	return st, nil
}

// SetTelemetry attaches a collector; fault events and repairs are counted
// into it. A nil collector is allowed (and costs nothing).
func (st *State) SetTelemetry(col *telemetry.Collector) { st.tel = col }

// Policy returns the configured policy.
func (st *State) Policy() Policy { return st.policy }

// NextEventAt returns the cycle of the next unapplied event, or -1 when
// the schedule is exhausted.
func (st *State) NextEventAt() int64 {
	if st.next >= len(st.events) {
		return -1
	}
	return st.events[st.next].At
}

// Advance applies every event scheduled at or before clock and returns
// the slice of newly applied events (nil when none fired). Down events on
// an already-down edge and up events on an already-up edge are applied as
// no-ops but still reported, so callers can flush affected queues
// unconditionally.
func (st *State) Advance(clock int64) []Event {
	if st.next >= len(st.events) || st.events[st.next].At > clock {
		return nil
	}
	start := st.next
	for st.next < len(st.events) && st.events[st.next].At <= clock {
		e := st.events[st.next]
		st.apply(e)
		st.next++
	}
	fired := st.events[start:st.next]
	st.epoch++
	if st.tel != nil {
		st.tel.CountFaultEvents(int64(len(fired)))
		st.tel.SetLinksDown(int64(st.numDown))
	}
	return fired
}

func (st *State) apply(e Event) {
	id := st.g.LinkID(e.U, e.V) // NewState checked every event is an edge
	isDown := st.downDir[id]
	if e.Up {
		st.ups++
		if !isDown {
			return
		}
		st.numDown--
	} else {
		st.downs++
		if isDown {
			return
		}
		st.numDown++
	}
	st.downDir[id] = !e.Up
	st.downDir[st.g.ReverseLink(id)] = !e.Up
}

// Active reports whether any link is currently down. When false, every
// liveness query is a trivial full mask and simulators can skip all fault
// handling.
func (st *State) Active() bool { return st.numDown > 0 }

// Done reports whether no link is down and no event remains — the state
// can no longer affect the run.
func (st *State) Done() bool { return st.numDown == 0 && st.next >= len(st.events) }

// LinkDown reports whether the directed network link id is down. Ids at
// or beyond the graph's link count (the simulators' injection/ejection
// pseudo-links) are never down.
func (st *State) LinkDown(link int32) bool {
	return int(link) < len(st.downDir) && st.downDir[link]
}

// EdgeDown reports whether the undirected edge {u, v} is down. A non-edge
// is never down.
func (st *State) EdgeDown(u, v graph.NodeID) bool {
	l := st.g.LinkID(u, v)
	return l >= 0 && st.downDir[l]
}

// DownCount returns the number of currently failed undirected links.
func (st *State) DownCount() int { return st.numDown }

// Counters returns the cumulative applied down events, up events and
// path-set repairs.
func (st *State) Counters() (downs, ups, repairs int64) {
	return st.downs, st.ups, st.repairs
}

// PathAlive reports whether p crosses no failed link.
func (st *State) PathAlive(p graph.Path) bool {
	if st.numDown == 0 {
		return true
	}
	for i := 0; i+1 < len(p); i++ {
		if st.downDir[st.g.LinkID(p[i], p[i+1])] {
			return false
		}
	}
	return true
}

func pairKey(s, d graph.NodeID) uint64 {
	return uint64(uint32(s))<<32 | uint64(uint32(d))
}

// LiveMask returns the liveness bitmap for the pair's candidate list: bit
// i set when ps[i] crosses no failed link. Results are cached per pair
// and invalidated when a fault event changes the epoch. Candidates past
// index 63 are reported dead (see the type comment).
func (st *State) LiveMask(src, dst graph.NodeID, ps []graph.Path) uint64 {
	if st.numDown == 0 {
		return FullMask(len(ps))
	}
	key := pairKey(src, dst)
	if e, ok := st.live[key]; ok && e.epoch == st.epoch {
		return e.mask
	}
	var mask uint64
	for i, p := range ps {
		if i >= 64 {
			break
		}
		if st.PathAlive(p) {
			mask |= 1 << uint(i)
		}
	}
	st.live[key] = liveEntry{epoch: st.epoch, mask: mask}
	return mask
}

// Candidates returns the routable candidate set for the pair and its
// liveness mask. With no active faults it returns ps with a full mask
// (and touches no cache). When some candidates survive, it returns ps
// with the live-bit mask. When every candidate is dead it falls back to
// the repair path: recompute the pair's set on the failed-edge-filtered
// graph (nil, 0 when repair is disabled or the pair is disconnected).
func (st *State) Candidates(src, dst graph.NodeID, ps []graph.Path) ([]graph.Path, uint64) {
	if st.numDown == 0 {
		return ps, FullMask(len(ps))
	}
	if mask := st.LiveMask(src, dst, ps); mask != 0 {
		return ps, mask
	}
	rp := st.Repaired(src, dst)
	if len(rp) == 0 {
		return nil, 0
	}
	return rp, FullMask(len(rp))
}

// Repaired returns the pair's recomputed path set on the current
// failed-edge-filtered graph, computing and caching it on first use per
// epoch. It returns nil when repair is disabled or the pair is
// disconnected in the degraded graph.
func (st *State) Repaired(src, dst graph.NodeID) []graph.Path {
	if st.repair == nil {
		return nil
	}
	key := pairKey(src, dst)
	if e, ok := st.repaired[key]; ok && e.epoch == st.epoch {
		return e.ps
	}
	st.ensureFiltered()
	// Per-pair reseeding mirrors paths.DB.computeWith, so a repaired set
	// depends only on (seed, pair, failed edges) — never on discovery
	// order.
	st.comp.Reseed(st.repair.Seed, pairKey(src, dst))
	ps := st.comp.Paths(src, dst)
	if st.maxLen > 0 {
		kept := ps[:0]
		for _, p := range ps {
			if p.Hops() <= st.maxLen {
				kept = append(kept, p)
			}
		}
		ps = kept
	}
	if len(ps) == 0 {
		ps = nil
	}
	st.repaired[key] = repairEntry{epoch: st.epoch, ps: ps}
	st.repairs++
	if st.tel != nil {
		st.tel.CountFaultRepair()
	}
	return ps
}

// ensureFiltered rebuilds the failed-edge-filtered graph view and its
// path computer when the epoch has moved since the last rebuild.
func (st *State) ensureFiltered() {
	if st.filtered != nil && st.filteredEpoch == st.epoch {
		return
	}
	b := st.g.Clone()
	for l, down := range st.downDir {
		if u, v := st.g.LinkEndpoints(int32(l)); down && u < v {
			b.RemoveEdge(u, v)
		}
	}
	st.filtered = b.Graph()
	st.filteredEpoch = st.epoch
	st.comp = ksp.NewComputer(st.filtered, st.repair.KSP, xrand.New(st.repair.Seed))
}

// FullMask returns a mask with the low n bits set (all 64 for n >= 64).
func FullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

// PopCount returns the number of set bits.
func PopCount(mask uint64) int { return bits.OnesCount64(mask) }

// FirstSet returns the index of the lowest set bit (64 when mask is 0).
func FirstSet(mask uint64) int { return bits.TrailingZeros64(mask) }

// NthSet returns the index of the n-th (0-based) set bit of mask. It
// panics if mask has fewer than n+1 set bits.
func NthSet(mask uint64, n int) int {
	for i := 0; i < n; i++ {
		mask &= mask - 1 // clear lowest set bit
	}
	if mask == 0 {
		panic("faults: NthSet beyond population")
	}
	return bits.TrailingZeros64(mask)
}

// NextSet returns the index of the first set bit at or after from,
// wrapping around within the low n bits. It panics if mask is 0.
func NextSet(mask uint64, from, n int) int {
	if mask == 0 {
		panic("faults: NextSet on empty mask")
	}
	for i := 0; i < n; i++ {
		idx := (from + i) % n
		if mask&(1<<uint(idx)) != 0 {
			return idx
		}
	}
	panic("faults: NextSet found no bit within n")
}
