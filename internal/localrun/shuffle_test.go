package localrun

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/writable"
)

// TestMissingSegmentKeepsConnectionAlive pins the persistent-connection
// contract: a miss answers one pipelined request and the connection keeps
// serving the ones behind it.
func TestMissingSegmentKeepsConnectionAlive(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := kvbuf.NewWriter(64)
	w.Append([]byte("key"), []byte("value"))
	seg := w.Close()
	if err := s.Register(3, 0, seg); err != nil {
		t.Fatal(err)
	}

	c, err := dialShuffle(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Pipeline a miss ahead of a hit on the same connection.
	if err := c.request(9, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.request(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.response(true); !errors.Is(err, errSegmentMissing) {
		t.Fatalf("first response error = %v, want errSegmentMissing", err)
	}
	data, err := c.response(true)
	if err != nil {
		t.Fatalf("response after a miss on the same connection: %v", err)
	}
	if !bytes.Equal(data, seg.Bytes()) {
		t.Error("payload after a miss does not match the registered segment")
	}
}

// fetchAnnounced runs the production copy phase of reduce task `reduce`
// against maps already registered with the server at addr: every map
// announced up front, fetched over `copies` persistent pipelined connections
// into an unbounded merge pool.
func fetchAnnounced(addr string, maps, reduce, copies int) (*shuffleResult, error) {
	board := newCompletionBoard(maps)
	for m := 0; m < maps; m++ {
		board.Announce(m, 0)
	}
	cmp, err := writable.Comparator("BytesWritable")
	if err != nil {
		return nil, err
	}
	ss := newStreamShuffle(addr, maps, reduce, copies, false, nil, faultinject.Backoff{}, board, cmp, unboundedTuning(10))
	return ss.run(nil)
}

// TestFetchAllSegmentsPipelined drives the production copy path: many maps
// over few persistent connections, every segment verified while streaming.
func TestFetchAllSegmentsPipelined(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 37 // not a multiple of the copier count
	want := make([]*kvbuf.Segment, maps)
	for m := 0; m < maps; m++ {
		w := kvbuf.NewWriter(64)
		w.Append([]byte(fmt.Sprintf("key-%02d", m)), []byte{byte(m)})
		want[m] = w.Close()
		if err := s.Register(m, 5, want[m]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := fetchAnnounced(s.Addr(), maps, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer res.cleanup()
	if len(res.inputs) != maps {
		t.Fatalf("copy phase produced %d merge inputs, want one per map (%d)", len(res.inputs), maps)
	}
	for m, in := range res.inputs {
		if in.seg == nil || in.lo != m {
			t.Fatalf("input %d = maps [%d,%d) seg=%v, want map %d in memory", m, in.lo, in.hi, in.seg != nil, m)
		}
		if !bytes.Equal(in.seg.Bytes(), want[m].Bytes()) {
			t.Errorf("map %d payload mismatch", m)
		}
		if res.wire[m] != int64(want[m].Len()) {
			t.Errorf("map %d wire length = %d, want %d", m, res.wire[m], want[m].Len())
		}
	}
	if st := res.st; st.failures != 0 || st.retries != 0 || st.slow != 0 {
		t.Errorf("clean fetch recorded recovery events: %+v", st)
	}
}

// TestFetchAllSegmentsMissingFailsFast: one unregistered map among many
// must fail permanently (no backoff stalls) while the rest of the pipelined
// fetcher's share still fetches.
func TestFetchAllSegmentsMissingFailsFast(t *testing.T) {
	s, err := newShuffleServer(false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const maps = 8
	share := make([]int, maps)
	for m := 0; m < maps; m++ {
		share[m] = m
		if m == 4 {
			continue // the hole
		}
		w := kvbuf.NewWriter(64)
		w.Append([]byte("k"), []byte("v"))
		if err := s.Register(m, 0, w.Close()); err != nil {
			t.Fatal(err)
		}
	}
	segs := make([]*kvbuf.Segment, maps)
	var st fetchStats
	f := &segmentFetcher{addr: s.Addr(), bo: faultinject.Backoff{Attempts: 4, Base: 100 * time.Millisecond}, st: &st}
	defer f.closeConn()
	start := time.Now()
	err = f.run(share, func(m int, seg *kvbuf.Segment, _ int64) { segs[m] = seg })
	if err == nil {
		t.Fatal("fetch with an unregistered segment succeeded")
	}
	if !strings.Contains(err.Error(), "not found") {
		t.Errorf("error not descriptive: %v", err)
	}
	// Permanent: no 100ms backoff sleeps may have happened.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("missing segment was retried (%v elapsed), want permanent failure", d)
	}
	for m := 0; m < maps; m++ {
		if m == 4 {
			if segs[m] != nil {
				t.Error("hole fetched a segment from nowhere")
			}
			continue
		}
		if segs[m] == nil {
			t.Errorf("map %d was not fetched despite the unrelated miss", m)
		}
	}
}
