package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"mrmicro/internal/kvbuf"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/writable"
)

// Span names of the record-level probes.
const (
	spanWritable   = "writable.Marshal+Unmarshal"
	spanSort       = "kvbuf.SortBuffer.Add+Spill"
	spanCompress   = "kvbuf.CompressSegmentWith"
	spanDecompress = "kvbuf.Segment.Decompress"
	spanMerge      = "kvbuf.MergeAllStream"
	spanGroup      = "kvbuf.GroupIterator"
)

// writableProbeRecords bounds the writable probe to one map's first records.
const writableProbeRecords = 100_000

// mapRecords is one map task's output, serialized the way the map-side
// collector serializes it: key and value bytes plus the partition.
type mapRecords struct {
	buf        []byte
	keyEnd     []int32 // end of each record's key in buf
	valEnd     []int32 // end of each record's value in buf
	partitions []int32
}

func (m *mapRecords) len() int { return len(m.partitions) }

func (m *mapRecords) record(i int) (key, val []byte) {
	start := int32(0)
	if i > 0 {
		start = m.valEnd[i-1]
	}
	return m.buf[start:m.keyEnd[i]], m.buf[m.keyEnd[i]:m.valEnd[i]]
}

// captureMap runs map task m of job through the job's own reader, mapper
// and partitioner, and returns what it emitted. It is the probes' source of
// the workload's real records; it is not itself timed.
func captureMap(job *mapreduce.Job, split mapreduce.InputSplit, m int) (*mapRecords, error) {
	nr := job.Conf.NumReduces()
	var part mapreduce.Partitioner
	if job.PartitionerForTask != nil {
		part = job.PartitionerForTask(m)
	} else {
		part = job.Partitioner()
	}
	out := &mapRecords{}
	enc := writable.NewDataOutput(256)
	collect := mapreduce.CollectorFunc(func(k, v writable.Writable) error {
		enc.Reset()
		k.Write(enc)
		kl := enc.Len()
		v.Write(enc)
		p := part.Partition(k, v, nr)
		if p < 0 || p >= nr {
			return fmt.Errorf("partitioner returned %d for %d reduces", p, nr)
		}
		out.buf = append(out.buf, enc.Bytes()...)
		out.keyEnd = append(out.keyEnd, int32(len(out.buf)-enc.Len()+kl))
		out.valEnd = append(out.valEnd, int32(len(out.buf)))
		out.partitions = append(out.partitions, int32(p))
		return nil
	})
	reader, err := job.Input.Reader(split, job.Conf)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	mapper := job.Mapper()
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := mapper.Map(k, v, collect, mapreduce.NullReporter{}); err != nil {
			return nil, err
		}
	}
	return out, mapper.Close(collect, mapreduce.NullReporter{})
}

// heapAllocs is the count of heap objects allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// recordProbes times the record-level layers on the workload's own map
// output: writable (de)serialization, the map-side sort, the segment codec,
// the reduce-side merge over one reducer's segments and the reduce value
// iterator over the merged records.
func recordProbes(tr *tracer, job *mapreduce.Job, vals map[string]float64) error {
	if err := job.Validate(); err != nil { // fills in the default partitioner
		return err
	}
	splits, err := job.Input.Splits(job.Conf)
	if err != nil {
		return err
	}
	nr := job.Conf.NumReduces()
	cmp, err := writable.Comparator(job.MapOutputKeyType)
	if err != nil {
		return err
	}
	pf, hasPF := writable.PrefixExtractor(job.MapOutputKeyType)
	codec, _ := kvbuf.CodecByName("deflate")
	jid := tr.newJob()

	var sortAllocs uint64
	var sortRecs int64
	var mergeSegs []*kvbuf.Segment
	reducer := -1
	for m, split := range splits {
		recs, err := captureMap(job, split, m)
		if err != nil {
			return fmt.Errorf("map %d: %w", m, err)
		}
		if m == 0 {
			allocs, n, err := writableProbe(tr, jid, job, recs)
			if err != nil {
				return err
			}
			vals["writable.allocs_per_rec"] = float64(allocs) / float64(n)
		}

		buf := kvbuf.NewSortBuffer(len(recs.buf)+recs.len()*kvbuf.MetaBytesPerRecord+1, nr, cmp)
		if hasPF {
			buf.SetPrefixFunc(pf)
		}
		a0 := heapAllocs()
		id := tr.begin(spanSort, 0, jid, 0)
		for i := 0; i < recs.len(); i++ {
			k, v := recs.record(i)
			if ok, err := buf.Add(int(recs.partitions[i]), k, v); err != nil || !ok {
				return fmt.Errorf("sort buffer refused record %d of map %d (err=%v)", i, m, err)
			}
		}
		segs, _ := buf.Spill()
		tr.end(id, int64(recs.len()), int64(len(recs.buf)))
		sortAllocs += heapAllocs() - a0
		sortRecs += int64(recs.len())
		buf.Release()

		if m == 0 {
			reducer = largest(segs)
			raw, compressed, err := codecProbe(tr, jid, codec, segs)
			if err != nil {
				return err
			}
			vals["kvbuf.codec.ratio"] = float64(compressed) / float64(raw)
		}
		for r, s := range segs {
			if r == reducer {
				mergeSegs = append(mergeSegs, s)
			} else {
				s.Recycle()
			}
		}
	}
	vals["kvbuf.sort.allocs_per_rec"] = float64(sortAllocs) / float64(sortRecs)
	secs, n, _ := tr.totals(spanSort)
	vals["kvbuf.sort.ns_per_rec"] = secs * 1e9 / float64(n)
	secs, n, _ = tr.totals(spanWritable)
	vals["writable.ns_per_rec"] = secs * 1e9 / float64(n)

	cs, _, craw := tr.totals(spanCompress)
	ds, _, draw := tr.totals(spanDecompress)
	vals["kvbuf.codec.compress_mb_per_s"] = float64(craw) / 1e6 / cs
	vals["kvbuf.codec.decompress_mb_per_s"] = float64(draw) / 1e6 / ds

	return mergeProbe(tr, jid, cmp, job.Conf.IOSortFactor(), mergeSegs, vals)
}

// largest returns the index of the segment with the most bytes.
func largest(segs []*kvbuf.Segment) int {
	best := 0
	for r, s := range segs {
		if s.Len() > segs[best].Len() {
			best = r
		}
	}
	return best
}

// writableProbe deserializes and re-serializes up to writableProbeRecords
// of one map's records through the job's own key and value types.
func writableProbe(tr *tracer, jid int, job *mapreduce.Job, recs *mapRecords) (allocs uint64, n int, err error) {
	key, err := writable.New(job.MapOutputKeyType)
	if err != nil {
		return 0, 0, err
	}
	val, err := writable.New(job.MapOutputValueType)
	if err != nil {
		return 0, 0, err
	}
	n = min(recs.len(), writableProbeRecords)
	var out int
	a0 := heapAllocs()
	id := tr.begin(spanWritable, 0, jid, 0)
	for i := 0; i < n; i++ {
		kb, vb := recs.record(i)
		if err := writable.Unmarshal(kb, key); err != nil {
			return 0, 0, err
		}
		if err := writable.Unmarshal(vb, val); err != nil {
			return 0, 0, err
		}
		out += len(writable.Marshal(key)) + len(writable.Marshal(val))
	}
	tr.end(id, int64(n), int64(out))
	return heapAllocs() - a0, n, nil
}

// codecProbe compresses and decompresses each non-empty spilled segment,
// returning the raw and compressed byte totals.
func codecProbe(tr *tracer, jid int, codec kvbuf.Codec, segs []*kvbuf.Segment) (raw, compressed int64, err error) {
	for _, s := range segs {
		if s.Records() == 0 {
			continue
		}
		id := tr.begin(spanCompress, 0, jid, 0)
		c := kvbuf.CompressSegmentWith(s, codec)
		tr.end(id, int64(s.Records()), int64(s.Len()))
		raw += int64(s.Len())
		compressed += int64(c.Len())
		id = tr.begin(spanDecompress, 0, jid, 0)
		d, err := c.Decompress()
		tr.end(id, int64(s.Records()), int64(s.Len()))
		if err != nil {
			return 0, 0, fmt.Errorf("decompress: %w", err)
		}
		if d.Len() != s.Len() {
			return 0, 0, fmt.Errorf("codec round trip changed a segment from %d to %d bytes", s.Len(), d.Len())
		}
		d.Recycle()
		c.Recycle()
	}
	return raw, compressed, nil
}

// mergeProbe merges one reducer's segments from every map and walks the
// merged records with the reduce value iterator.
func mergeProbe(tr *tracer, jid int, cmp writable.RawComparator, factor int, segs []*kvbuf.Segment, vals map[string]float64) error {
	var in int64
	for _, s := range segs {
		in += int64(s.Len())
	}
	var recs []kvbuf.Record
	id := tr.begin(spanMerge, 0, jid, 0)
	t0 := time.Now()
	_, err := kvbuf.MergeAllStream(cmp, segs, factor, nproc, func(k, v []byte) error {
		recs = append(recs, kvbuf.Record{Key: k, Val: v})
		return nil
	})
	mergeTime := time.Since(t0)
	tr.end(id, int64(len(recs)), in)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("merge probe: reducer has no records")
	}
	vals["kvbuf.merge.mb_per_s"] = float64(in) / 1e6 / mergeTime.Seconds()
	vals["kvbuf.merge.ns_per_rec"] = float64(mergeTime.Nanoseconds()) / float64(len(recs))

	it := kvbuf.NewGroupIterator(cmp, recs)
	grouped := 0
	id = tr.begin(spanGroup, 0, jid, 0)
	t0 = time.Now()
	for {
		_, vs, ok := it.NextGroup()
		if !ok {
			break
		}
		grouped += len(vs)
	}
	groupTime := time.Since(t0)
	tr.end(id, int64(grouped), 0)
	if grouped != len(recs) {
		return fmt.Errorf("group iterator yielded %d of %d records", grouped, len(recs))
	}
	vals["kvbuf.group.ns_per_rec"] = float64(groupTime.Nanoseconds()) / float64(grouped)
	return nil
}
