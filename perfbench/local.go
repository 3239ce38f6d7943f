package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mrmicro/internal/faultinject"
	"mrmicro/internal/kvbuf"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// Span names of the traced local job.
const (
	spanLocalJob  = "localrun.job"
	spanRunMap    = "localrun.TaskRunner.RunMap"
	spanFetch     = "localrun.FetchMapOutput"
	spanRunReduce = "localrun.TaskRunner.RunReduce"
)

// setupAvgTiny is MR-AVG with the paper's Fig. 4a 10-byte keys and values:
// one spill per map, unbounded merge, no codec. Per-record work dominates.
func setupAvgTiny(seed int64) (instance, error) {
	return newLocal(microbench.Config{
		Pattern:     microbench.MRAvg,
		KeySize:     10,
		ValueSize:   10,
		PairsPerMap: 200_000,
		NumMaps:     16,
		NumReduces:  4,
		Seed:        seed,
	}, func(o outcome) error {
		const stated = 16 * 200_000
		if got := o.counters.Task(mapreduce.CtrMapOutputRecords); got != stated {
			return fmt.Errorf("avg-tiny emitted %d map output records, want the stated %d", got, stated)
		}
		return nil
	})
}

// setupSkewSpill is MR-SKEW with 1 KiB values, a 1 MiB sort buffer (several
// background spills per map) and an 8 MiB reduce-side budget (disk runs and
// an intermediate merge pass). Bytes dominate; reducer 0 is the straggler.
func setupSkewSpill(seed int64) (instance, error) {
	return newLocal(microbench.Config{
		Pattern:          microbench.MRSkew,
		KeySize:          16,
		ValueSize:        1024,
		PairsPerMap:      8_000,
		NumMaps:          16,
		NumReduces:       4,
		IOSortMB:         1,
		ShuffleMemBudget: 8 << 20,
		Seed:             seed,
	}, func(o outcome) error {
		if o.local == nil {
			return nil // the traced composition runs its own schedule
		}
		if s := o.local.MapSpill.Spills; s < 2*int64(o.local.NumMaps) {
			return fmt.Errorf("skew-spill made %d spills over %d maps, want more than one per map", s, o.local.NumMaps)
		}
		if p := o.local.ReduceMerge.DiskPasses; p < 1 {
			return fmt.Errorf("skew-spill made %d reduce-side disk passes, want at least one", p)
		}
		return nil
	})
}

// localBench runs a synthetic benchmark on the in-process executor.
type localBench struct {
	cfg  microbench.Config
	want []int64 // per-reduce records by an independent partitioner count
	// pairBytes is one record's serialized key plus value, measured by
	// marshaling writables of the configured type and sizes.
	pairBytes int64
	guardFn   func(outcome) error
	retries   atomic.Int64 // fetch retries seen by the traced composition
}

func newLocal(cfg microbench.Config, guard func(outcome) error) (*localBench, error) {
	cfg.ParallelCopies = nproc
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	want, err := partitionCounts(cfg)
	if err != nil {
		return nil, err
	}
	pairBytes, err := serializedPair(cfg)
	if err != nil {
		return nil, err
	}
	return &localBench{cfg: cfg, want: want, pairBytes: pairBytes, guardFn: guard}, nil
}

// serializedPair marshals one key and one value of cfg's type and sizes.
func serializedPair(cfg microbench.Config) (int64, error) {
	var n int
	for _, size := range []int{cfg.KeySize, cfg.ValueSize} {
		var w writable.Writable
		switch cfg.DataType {
		case "BytesWritable":
			w = &writable.BytesWritable{Data: make([]byte, size)}
		case "Text":
			w = &writable.Text{Data: make([]byte, size)}
		default:
			return 0, fmt.Errorf("no record size for data type %q", cfg.DataType)
		}
		n += len(writable.Marshal(w))
	}
	return int64(n), nil
}

// partitionCounts counts each reducer's records by driving fresh pattern
// partitioners directly, seeded per map task the way the job seeds them.
func partitionCounts(cfg microbench.Config) ([]int64, error) {
	want := make([]int64, cfg.NumReduces)
	for m := 0; m < cfg.NumMaps; m++ {
		p, err := microbench.NewPartitioner(cfg.Pattern, cfg.PairsPerMap, cfg.Seed+int64(m)*7919)
		if err != nil {
			return nil, err
		}
		for i := int64(0); i < cfg.PairsPerMap; i++ {
			want[p.Partition(nil, nil, cfg.NumReduces)]++
		}
	}
	return want, nil
}

func (b *localBench) job() outcome {
	job, err := microbench.BuildJob(b.cfg)
	if err != nil {
		return outcome{err: err}
	}
	var res *localrun.Result
	wall, cpu, err := measure(func() (err error) {
		res, err = localrun.Run(job, &localrun.Options{})
		return err
	})
	o := outcome{wall: wall, cpu: cpu, points: 1, err: err}
	if err == nil {
		o.local = res
		o.counters = res.Counters
		o.perReduce = res.PerReduceRecords
		o.records = res.Counters.Task(mapreduce.CtrMapOutputRecords)
	}
	return o
}

// tracedJob runs the job from the executor's per-task surface: every map
// through TaskRunner.RunMap, every partition through FetchMapOutput over
// loopback, every reduce through TaskRunner.RunReduce, with a span on each.
// Maps finish before reduces start (the barrier schedule).
func (b *localBench) tracedJob(tr *tracer) outcome {
	job, err := microbench.BuildJob(b.cfg)
	if err != nil {
		return outcome{err: err}
	}
	jid := tr.newJob()
	total := mapreduce.NewCounters()
	var perReduce []int64
	wall, cpu, err := measure(func() error {
		var err error
		perReduce, err = b.compose(tr, jid, job, total)
		return err
	})
	return outcome{
		wall: wall, cpu: cpu, points: 1, err: err,
		counters:  total,
		perReduce: perReduce,
		records:   total.Task(mapreduce.CtrMapOutputRecords),
	}
}

func (b *localBench) compose(tr *tracer, jid int, job *mapreduce.Job, total *mapreduce.Counters) ([]int64, error) {
	root := tr.begin(spanLocalJob, 0, jid, 0)
	defer tr.end(root, 0, 0)
	runner, err := localrun.NewTaskRunner(job)
	if err != nil {
		return nil, err
	}
	server, err := localrun.NewShuffleServer()
	if err != nil {
		return nil, err
	}
	defer server.Close()
	nm, nr := runner.NumMaps(), runner.NumReduces()

	var mu sync.Mutex
	err = parallel(nm, nproc, func(lane, m int) error {
		id := tr.begin(spanRunMap, root, jid, lane)
		c, err := runner.RunMap(m, 0, server, nil, mapreduce.NewCounters())
		if err != nil {
			tr.end(id, 0, 0)
			return fmt.Errorf("map %d: %w", m, err)
		}
		tr.end(id, c.Task(mapreduce.CtrMapOutputRecords), c.Task(mapreduce.CtrMapOutputBytes))
		mu.Lock()
		total.Merge(c)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	copies := job.Conf.ParallelCopies()
	perReduce := make([]int64, nr)
	err = parallel(nr, nproc, func(lane, r int) error {
		parts := make([]*kvbuf.Segment, nm)
		err := parallel(nm, copies, func(cl, m int) error {
			id := tr.begin(spanFetch, root, jid, 100+lane*copies+cl)
			seg, wire, st, err := localrun.FetchMapOutput(server.Addr(), m, r, runner.Compressed(), nil, faultinject.Backoff{})
			tr.end(id, 1, wire)
			b.retries.Add(st.Retries)
			parts[m] = seg
			return err
		})
		if err != nil {
			return fmt.Errorf("reduce %d fetch: %w", r, err)
		}
		id := tr.begin(spanRunReduce, root, jid, 50+lane)
		c, err := runner.RunReduce(r, 0, parts, nil)
		if err != nil {
			tr.end(id, 0, 0)
			return fmt.Errorf("reduce %d: %w", r, err)
		}
		perReduce[r] = c.Task(mapreduce.CtrReduceInputRecords)
		tr.end(id, perReduce[r], 0)
		mu.Lock()
		total.Merge(c)
		mu.Unlock()
		return nil
	})
	return perReduce, err
}

// check compares the counters with the configuration and the per-reduce
// records with the independent partitioner count.
func (b *localBench) check(o outcome) error {
	records := int64(b.cfg.NumMaps) * b.cfg.PairsPerMap
	for _, c := range []struct {
		name string
		want int64
	}{
		{mapreduce.CtrMapOutputRecords, records},
		{mapreduce.CtrReduceInputRecords, records},
		{mapreduce.CtrMapOutputBytes, records * b.pairBytes},
	} {
		if got := o.counters.Task(c.name); got != c.want {
			return fmt.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if !slices.Equal(o.perReduce, b.want) {
		return fmt.Errorf("per-reduce records %v, partitioner count %v", o.perReduce, b.want)
	}
	return nil
}

func (b *localBench) guard(o outcome) error { return b.guardFn(o) }

func (b *localBench) layers(tr *tracer, untraced []outcome) (map[string]float64, map[string]summary, error) {
	vals := map[string]float64{}
	mapTasks := tr.durations(spanRunMap)
	vals["localrun.map.task_s_p50"] = percentile(mapTasks, 50)
	vals["localrun.map.task_s_p90"] = percentile(mapTasks, 90)
	fetchSecs, _, fetchBytes := tr.totals(spanFetch)
	vals["localrun.fetch.mb_per_s"] = float64(fetchBytes) / 1e6 / fetchSecs
	vals["localrun.fetch.ms_p50"] = percentile(tr.durations(spanFetch), 50) * 1e3
	vals["localrun.fetch.retries"] = float64(b.retries.Load())
	reduceTasks := tr.durations(spanRunReduce)
	vals["localrun.reduce.task_s_p50"] = percentile(reduceTasks, 50)
	vals["localrun.reduce.task_s_max"] = percentile(reduceTasks, 100)

	// Phase and pipeline figures come from the untraced runs' Result. Counts
	// such as disk runs vary between runs, so each field's spread goes into
	// the detail line; disk_runs appears only there.
	fields := map[string]func(*localrun.Result) float64{
		"localrun.map_phase_s":           func(r *localrun.Result) float64 { return r.MapPhase.Seconds() },
		"localrun.overlap_s":             func(r *localrun.Result) float64 { return r.OverlapWindow.Seconds() },
		"localrun.reduce_tail_s":         func(r *localrun.Result) float64 { return r.ReduceTail.Seconds() },
		"localrun.spill.count":           func(r *localrun.Result) float64 { return float64(r.MapSpill.Spills) },
		"localrun.spill.collect_stall_s": func(r *localrun.Result) float64 { return r.MapSpill.CollectStall.Seconds() },
		"localrun.spill.overlap_s":       func(r *localrun.Result) float64 { return r.MapSpill.Overlapped().Seconds() },
		"localrun.merge.disk_passes":     func(r *localrun.Result) float64 { return float64(r.ReduceMerge.DiskPasses) },
		"localrun.merge.fetch_wait_s":    func(r *localrun.Result) float64 { return r.ReduceMerge.FetchWait.Seconds() },
		"localrun.merge.disk_runs":       func(r *localrun.Result) float64 { return float64(r.ReduceMerge.DiskRuns) },
	}
	spreads := map[string]summary{}
	for name, f := range fields {
		var xs []float64
		for _, o := range untraced {
			if o.local != nil {
				xs = append(xs, f(o.local))
			}
		}
		spreads[name] = summarize(xs)
		vals[name] = median(xs)
	}

	job, err := microbench.BuildJob(b.cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := recordProbes(tr, job, vals); err != nil {
		return nil, nil, err
	}
	return vals, spreads, nil
}
