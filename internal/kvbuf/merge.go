package kvbuf

import (
	"fmt"
	"runtime"
	"sync"

	"mrmicro/internal/writable"
)

// RecordSource is a sorted cursor over key/value records: anything a merge
// can drain. *Reader (in-memory segments) and *RunReader (on-disk runs)
// both satisfy it. Returned slices are views owned by the source, valid
// only until its next Next call.
type RecordSource interface {
	Next() (key, val []byte, ok bool, err error)
}

// sourceEntry is one source's cursor in a SourceMerger.
type sourceEntry struct {
	src      RecordSource
	key, val []byte
	eof      bool
	index    int // tie-break: earlier source wins, keeping merges stable
}

func (e *sourceEntry) advance() error {
	k, v, ok, err := e.src.Next()
	if err != nil {
		return err
	}
	if !ok {
		e.eof = true
		e.key, e.val = nil, nil
		return nil
	}
	e.key, e.val = k, v
	return nil
}

// SourceMerger is the package's k-way merge: a pull-based cursor over
// RecordSources, drained by every merge entry point (MergeStream, Merge,
// MergeAll, MergeSources). Ties between equal keys break toward the lower
// source index, so callers that order sources by map-index range get
// byte-identical output to a flat merge of the underlying segments. The
// pull shape (instead of an emit callback) lets a consumer interleave its
// own work — e.g. running the reducer group by group — without buffering
// the merged stream.
//
// The heap is a hand-rolled binary min-heap rather than container/heap:
// the interface indirection and Swap/Less method dispatch dominate
// small-record merges, and the inner loop only ever needs "replace the
// root, sift it down".
type SourceMerger struct {
	cmp     writable.RawComparator
	entries []*sourceEntry
	comps   int64
	started bool
}

// NewSourceMerger primes a cursor on every source. Sources that are empty
// from the start simply never surface.
func NewSourceMerger(cmp writable.RawComparator, srcs []RecordSource) (*SourceMerger, error) {
	m := &SourceMerger{cmp: cmp, entries: make([]*sourceEntry, 0, len(srcs))}
	for i, s := range srcs {
		e := &sourceEntry{src: s, index: i}
		if err := e.advance(); err != nil {
			return nil, err
		}
		if !e.eof {
			m.entries = append(m.entries, e)
		}
	}
	for i := len(m.entries)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *SourceMerger) less(a, b *sourceEntry) bool {
	m.comps++
	if c := m.cmp(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.index < b.index
}

func (m *SourceMerger) siftDown(i int) {
	e := m.entries
	n := len(e)
	root := e[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && m.less(e[r], e[child]) {
			child = r
		}
		if !m.less(e[child], root) {
			break
		}
		e[i] = e[child]
		i = child
	}
	e[i] = root
}

// Next returns the next record in merged key order. The slices are views
// owned by the winning source, valid until the following Next call.
func (m *SourceMerger) Next() (key, val []byte, ok bool, err error) {
	if m.started {
		// Advance the cursor whose record the previous call handed out.
		e := m.entries[0]
		if err := e.advance(); err != nil {
			return nil, nil, false, err
		}
		if e.eof {
			last := len(m.entries) - 1
			m.entries[0] = m.entries[last]
			m.entries[last] = nil
			m.entries = m.entries[:last]
			if len(m.entries) > 1 {
				m.siftDown(0)
			}
		} else {
			m.siftDown(0)
		}
	}
	if len(m.entries) == 0 {
		return nil, nil, false, nil
	}
	m.started = true
	e := m.entries[0]
	return e.key, e.val, true, nil
}

// Comparisons returns the key comparisons performed so far.
func (m *SourceMerger) Comparisons() int64 { return m.comps }

// MergeSources drains a SourceMerger through emit. It returns the number of
// key comparisons performed (which the simulated engines convert to CPU
// time).
func MergeSources(cmp writable.RawComparator, srcs []RecordSource, emit func(key, val []byte) error) (comparisons int64, err error) {
	m, err := NewSourceMerger(cmp, srcs)
	if err != nil {
		return 0, err // priming compares nothing until every cursor is up
	}
	for {
		k, v, ok, err := m.Next()
		if err != nil || !ok {
			return m.comps, err
		}
		if err := emit(k, v); err != nil {
			return m.comps, err
		}
	}
}

// MergeStream k-way merges the segments in key order and calls emit for
// every record: MergeSources over the segments' readers.
func MergeStream(cmp writable.RawComparator, segs []*Segment, emit func(key, val []byte) error) (comparisons int64, err error) {
	srcs := make([]RecordSource, len(segs))
	for i, s := range segs {
		srcs[i] = s.NewReader()
	}
	return MergeSources(cmp, srcs, emit)
}

// Merge k-way merges segments into a single new segment.
func Merge(cmp writable.RawComparator, segs []*Segment) (*Segment, int64, error) {
	total := 0
	for _, s := range segs {
		total += s.Len()
	}
	w := NewWriter(total)
	comparisons, err := MergeStream(cmp, segs, func(k, v []byte) error {
		w.Append(k, v)
		return nil
	})
	if err != nil {
		return nil, comparisons, err
	}
	return w.Close(), comparisons, nil
}

// MergePasses plans a Hadoop-style multi-pass merge: with fan-in factor F
// and n segments, intermediate passes reduce the segment count until one
// final pass covers the rest. It returns, per intermediate pass, how many
// segments that pass merges (the final pass is implicit). The first pass
// takes just enough segments to make the remainder congruent, as Hadoop's
// Merger does to minimize total passes.
func MergePasses(n, factor int) []int {
	if factor < 2 {
		factor = 2
	}
	var passes []int
	for n > factor {
		take := factor
		if rem := (n - 1) % (factor - 1); rem != 0 && len(passes) == 0 {
			take = rem + 1
		}
		passes = append(passes, take)
		n = n - take + 1
	}
	return passes
}

// MergeWave plans one pass of an adjacency-preserving multi-pass merge: it
// partitions n position-ordered runs into consecutive groups, each merged
// to a single run, returning the group sizes (nil when n <= factor and no
// intermediate pass is needed). It is MergePasses' positional sibling:
// MergePasses' FIFO schedule (used for map-side spills, whose segment
// identity does not outlive the task) can merge runs whose coverage
// interleaves, but a reduce-side disk merge must only ever combine runs
// covering adjacent map-index ranges, or positional tie-breaking — and with
// it output byte-identity against a flat merge — would not survive the
// pass. Groups are balanced to within one run so a wave's merges
// parallelize evenly; a size-1 group passes its run through unmerged.
func MergeWave(n, factor int) []int {
	if factor < 2 {
		factor = 2
	}
	if n <= factor {
		return nil
	}
	g := (n + factor - 1) / factor
	sizes := make([]int, g)
	base, extra := n/g, n%g
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}

// mergeIntermediate executes every intermediate pass of the MergePasses
// plan, leaving at most factor segments for the caller's final merge. It
// returns those final segments plus, per segment, whether this function
// created it (scratch: safe to Recycle once its bytes were copied onward).
//
// Passes are grouped into waves: a wave is the longest run of consecutive
// plan entries whose inputs are all materialized already, and the merges of
// a wave read disjoint inputs, so they run concurrently (bounded by
// parallelism; <= 0 means GOMAXPROCS). Scheduling does not change the
// byte-level result: segment order, tie-breaking and the comparison count
// are identical to running the plan sequentially.
func mergeIntermediate(cmp writable.RawComparator, segs []*Segment, factor, parallelism int) (final []*Segment, scratch []bool, comparisons int64, err error) {
	plan := MergePasses(len(segs), factor)
	if len(plan) == 0 {
		return segs, make([]bool, len(segs)), 0, nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	work := make([]*Segment, len(segs), len(segs)+len(plan))
	copy(work, segs)
	owned := make([]bool, len(segs), len(segs)+len(plan))
	pos := 0
	i := 0
	for i < len(plan) {
		taken := 0
		var wave []int
		for i < len(plan) && taken+plan[i] <= len(work)-pos {
			taken += plan[i]
			wave = append(wave, plan[i])
			i++
		}
		if len(wave) == 0 {
			return nil, nil, comparisons, fmt.Errorf("kvbuf: merge plan starved (%d segments, factor %d)", len(segs), factor)
		}
		outs := make([]*Segment, len(wave))
		comps := make([]int64, len(wave))
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		sem := make(chan struct{}, parallelism)
		off := pos
		for j, take := range wave {
			in := work[off : off+take]
			off += take
			wg.Add(1)
			sem <- struct{}{}
			go func(j int, in []*Segment) {
				defer wg.Done()
				defer func() { <-sem }()
				outs[j], comps[j], errs[j] = Merge(cmp, in)
			}(j, in)
		}
		wg.Wait()
		for j := range wave {
			if errs[j] != nil {
				return nil, nil, comparisons, errs[j]
			}
			comparisons += comps[j]
		}
		// The consumed inputs' bytes now live in the wave outputs; recycle
		// the ones this plan created (never the caller's segments).
		for k := pos; k < pos+taken; k++ {
			if owned[k] {
				work[k].Recycle()
			}
			work[k] = nil
		}
		pos += taken
		for _, o := range outs {
			work = append(work, o)
			owned = append(owned, true)
		}
	}
	return work[pos:], owned[pos:], comparisons, nil
}

// MergeAll merges any number of segments into a single segment while
// honoring the io.sort.factor fan-in bound: intermediate passes (run
// concurrently, scratch buffers recycled) reduce the count to at most
// factor, then one final merge produces the output. With n <= factor it is
// exactly Merge. parallelism <= 0 uses GOMAXPROCS.
func MergeAll(cmp writable.RawComparator, segs []*Segment, factor, parallelism int) (*Segment, int64, error) {
	final, scratch, comparisons, err := mergeIntermediate(cmp, segs, factor, parallelism)
	if err != nil {
		return nil, comparisons, err
	}
	out, comps, err := Merge(cmp, final)
	comparisons += comps
	if err != nil {
		return nil, comparisons, err
	}
	for i, s := range final {
		if scratch[i] {
			s.Recycle()
		}
	}
	return out, comparisons, nil
}

// MergeAllStream is MergeAll's streaming twin: the final bounded-width
// merge goes to emit instead of a segment. Records emitted are views into
// the final pass's input segments, so those segments (including any
// intermediate outputs) are NOT recycled — they stay alive as long as the
// caller retains the emitted slices.
func MergeAllStream(cmp writable.RawComparator, segs []*Segment, factor, parallelism int, emit func(key, val []byte) error) (int64, error) {
	final, _, comparisons, err := mergeIntermediate(cmp, segs, factor, parallelism)
	if err != nil {
		return comparisons, err
	}
	comps, err := MergeStream(cmp, final, emit)
	return comparisons + comps, err
}

// Record is one materialized key/value pair.
type Record struct {
	Key, Val []byte
}

// GroupIterator splits a sorted record stream into key groups for the
// reducer: all consecutive records whose keys compare equal form one group.
type GroupIterator struct {
	cmp  writable.RawComparator
	recs []Record
	pos  int
}

// NewGroupIterator wraps a fully merged record slice.
func NewGroupIterator(cmp writable.RawComparator, recs []Record) *GroupIterator {
	return &GroupIterator{cmp: cmp, recs: recs}
}

// NextGroup returns the next key and that key's values; ok=false at end.
func (g *GroupIterator) NextGroup() (key []byte, vals [][]byte, ok bool) {
	if g.pos >= len(g.recs) {
		return nil, nil, false
	}
	key = g.recs[g.pos].Key
	for g.pos < len(g.recs) && g.cmp(g.recs[g.pos].Key, key) == 0 {
		vals = append(vals, g.recs[g.pos].Val)
		g.pos++
	}
	return key, vals, true
}
