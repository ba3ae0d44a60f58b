package paths

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/ksp"
)

// maxPathsPerPair bounds the per-pair path count a serialized input may
// declare. No selector produces more than K paths and practical K is a
// few dozen; the bound exists so corrupted or hostile inputs cannot make
// the readers allocate unbounded memory from a tiny file.
const maxPathsPerPair = 1 << 16

// forEachSorted calls fn for every stored pair in ascending
// (src, dst) key order, merging the packed store with the lazy fills.
// Pending pairs are filled first. It holds the DB's read lock for the
// duration.
func (db *DB) forEachSorted(fn func(key uint64, ps []graph.Path) error) error {
	db.rlockFilled()
	defer db.mu.RUnlock()
	return db.forEachSortedLocked(fn)
}

// forEachSortedLocked is forEachSorted with db.mu already held (read or
// write) and nothing pending (see rlockFilled), for callers that need a
// stable view across several passes.
func (db *DB) forEachSortedLocked(fn func(key uint64, ps []graph.Path) error) error {
	lazy := make([]uint64, 0, len(db.m))
	for key := range db.m {
		lazy = append(lazy, key)
	}
	slices.Sort(lazy)
	var packed []uint64
	if db.st != nil {
		packed = db.st.keys
	}
	i, j := 0, 0
	for i < len(packed) || j < len(lazy) {
		switch {
		case j >= len(lazy) || (i < len(packed) && packed[i] <= lazy[j]):
			if j < len(lazy) && packed[i] == lazy[j] {
				j++ // defensive: store wins if a key is somehow in both
			}
			ps, _ := db.st.paths(packed[i])
			if err := fn(packed[i], ps); err != nil {
				return err
			}
			i++
		default:
			if err := fn(lazy[j], db.m[lazy[j]]); err != nil {
				return err
			}
			j++
		}
	}
	return nil
}

// Write serializes the DB's currently stored path sets in a line-oriented
// format, so an expensive all-pairs computation (minutes on the medium
// topology, hours on the large one) can be archived and reloaded:
//
//	PATHDB 1
//	config <alg> <k> <seed>
//	pair <src> <dst> <npaths>
//	path <n0> <n1> ... <nm>
//	...
//
// Pairs are emitted in ascending (src, dst) order, so two DBs holding the
// same path sets serialize byte-identically regardless of how they were
// filled (eager builds at any worker count, cache loads, lazy fills in
// any order). For the compact binary format used by the on-disk cache see
// WriteCache.
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "PATHDB 1\nconfig %s %d %d\n",
		db.cfg.Alg, db.cfg.K, db.seed); err != nil {
		return err
	}
	err := db.forEachSorted(func(key uint64, ps []graph.Path) error {
		src := graph.NodeID(key >> 32)
		dst := graph.NodeID(uint32(key))
		if _, err := fmt.Fprintf(bw, "pair %d %d %d\n", src, dst, len(ps)); err != nil {
			return err
		}
		for _, p := range ps {
			bw.WriteString("path")
			for _, u := range p {
				fmt.Fprintf(bw, " %d", u)
			}
			bw.WriteByte('\n')
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Read loads a DB written by Write onto graph g, validating every path
// against the graph and packing the result into the DB's CSR store. The
// DB's config (selector, k, seed) is restored, so lazily computed
// additions remain consistent with the original. Malformed input of any
// kind — truncation, unknown records, invalid paths, absurd counts —
// returns an error; Read never panics on bad input.
func Read(r io.Reader, g *graph.Graph) (*DB, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 256*1024*1024)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s != "" {
				return s, true
			}
		}
		return "", false
	}
	hdr, ok := next()
	if !ok || hdr != "PATHDB 1" {
		return nil, fmt.Errorf("paths: bad header %q", hdr)
	}
	cfgLine, ok := next()
	if !ok || !strings.HasPrefix(cfgLine, "config ") {
		return nil, fmt.Errorf("paths: missing config line")
	}
	fields := strings.Fields(cfgLine)
	if len(fields) != 4 {
		return nil, fmt.Errorf("paths: bad config line %q", cfgLine)
	}
	alg, err := ksp.ByName(fields[1])
	if err != nil {
		return nil, err
	}
	k, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, fmt.Errorf("paths: bad k: %v", err)
	}
	if k < 1 || k > maxPathsPerPair {
		return nil, fmt.Errorf("paths: k %d out of range [1, %d]", k, maxPathsPerPair)
	}
	seed, err := strconv.ParseUint(fields[3], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("paths: bad seed: %v", err)
	}
	db := NewDB(g, ksp.Config{Alg: alg, K: k}, seed)

	var keys []uint64
	var results [][]graph.Path
	seen := make(map[uint64]struct{})
	var curSrc, curDst graph.NodeID
	var want int
	var cur []graph.Path
	started := false
	flush := func() error {
		if !started {
			return nil
		}
		if len(cur) != want {
			return fmt.Errorf("paths: pair %d->%d has %d paths, header said %d",
				curSrc, curDst, len(cur), want)
		}
		key := pairKey(curSrc, curDst)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("paths: duplicate pair %d->%d", curSrc, curDst)
		}
		seen[key] = struct{}{}
		keys = append(keys, key)
		results = append(results, cur)
		cur = nil
		started = false
		return nil
	}
	for {
		s, ok := next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(s, "pair "):
			if err := flush(); err != nil {
				return nil, err
			}
			var np int
			if _, err := fmt.Sscanf(s, "pair %d %d %d", &curSrc, &curDst, &np); err != nil {
				return nil, fmt.Errorf("paths: line %d: %v", line, err)
			}
			if np < 0 || np > maxPathsPerPair {
				return nil, fmt.Errorf("paths: line %d: path count %d out of range", line, np)
			}
			if curSrc < 0 || int(curSrc) >= g.NumNodes() || curDst < 0 || int(curDst) >= g.NumNodes() {
				return nil, fmt.Errorf("paths: line %d: pair %d->%d out of range", line, curSrc, curDst)
			}
			want = np
			// Capacity is clamped: the declared count is only trusted
			// once the actual path lines have arrived.
			cur = make([]graph.Path, 0, min(np, 1024))
			started = true
		case strings.HasPrefix(s, "path"):
			if !started {
				return nil, fmt.Errorf("paths: line %d: path before pair", line)
			}
			if len(cur) >= want {
				return nil, fmt.Errorf("paths: line %d: more paths than the pair header declared", line)
			}
			fields := strings.Fields(s)[1:]
			p := make(graph.Path, len(fields))
			for i, f := range fields {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("paths: line %d: %v", line, err)
				}
				// Range-check before the NodeID cast: an out-of-range id
				// would otherwise index the graph's adjacency arrays.
				if v < 0 || v >= g.NumNodes() {
					return nil, fmt.Errorf("paths: line %d: node %d out of range", line, v)
				}
				p[i] = graph.NodeID(v)
			}
			if !p.ValidIn(g) {
				return nil, fmt.Errorf("paths: line %d: path %v not valid in graph", line, p)
			}
			if p.Src() != curSrc || p.Dst() != curDst {
				return nil, fmt.Errorf("paths: line %d: path endpoints do not match pair", line)
			}
			cur = append(cur, p)
		default:
			return nil, fmt.Errorf("paths: line %d: unknown record %q", line, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		db.st = pack(keys, results, 0, 1)
	}
	return db, nil
}
