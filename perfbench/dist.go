package main

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mrmicro/internal/apps"
	"mrmicro/internal/distrun"
	"mrmicro/internal/inputformat"
	"mrmicro/internal/mapreduce"
	"mrmicro/internal/microbench"
	"mrmicro/internal/writable"
)

// Span names of the traced dist job and the input probes.
const (
	spanDistJob        = "distrun.job"
	spanSpawn          = "distrun.spawn"
	spanNewCoord       = "distrun.NewCoordinator"
	spanStartWorkers   = "distrun.StartWorkers"
	spanDistMapPhase   = "distrun.map_phase"
	spanDistReduceTail = "distrun.reduce_tail"
	spanLineReader     = "inputformat.LineReader.Next"
	spanTokenize       = "apps.Tokenize"
)

// progressPoll is how often the traced dist job samples the coordinator's
// progress to find the end of the map phase.
const progressPoll = time.Millisecond

// Codec ratios outside these bounds mean the codec saw no realistic data:
// about 1 is incompressible input, below 0.02 is constant filler.
const minCodecRatio, maxCodecRatio = 0.02, 0.9

// setupInvIndexDist is an inverted index over a generated mixed-shape text
// corpus on the multi-process runtime with the deflate codec: real input,
// many distinct keys, compressible shuffle data.
func setupInvIndexDist(seed int64) (instance, error) {
	cfg, err := microbench.Config{
		Workload:       apps.InvIndex,
		InputSpec:      fmt.Sprintf("text:seed=%d,files=8,bytes=2097152,shape=mixed", seed),
		Codec:          "deflate",
		NumReduces:     4,
		ParallelCopies: nproc,
		Engine:         microbench.EngineDist,
		Seed:           seed,
	}.Normalize()
	if err != nil {
		return nil, err
	}
	// Materializes the corpus and computes the split geometry.
	maps, err := microbench.MapTaskCount(cfg)
	if err != nil {
		return nil, err
	}
	return &distBench{cfg: cfg, maps: maps, workers: min(2, nproc)}, nil
}

// distBench runs a real-input workload on a coordinator and spawned workers.
type distBench struct {
	cfg     microbench.Config
	maps    int
	workers int

	oracleOnce sync.Once
	oracle     *distrun.Result
	oracleErr  error
}

func (b *distBench) options() *distrun.Options {
	return &distrun.Options{Workers: b.workers, Digest: true}
}

func (b *distBench) job() outcome {
	var res *distrun.Result
	wall, cpu, err := measure(func() (err error) {
		res, err = distrun.Run(b.cfg, b.options())
		return err
	})
	return b.outcome(res, wall, cpu, err)
}

func (b *distBench) outcome(res *distrun.Result, wall, cpu time.Duration, err error) outcome {
	o := outcome{wall: wall, cpu: cpu, points: 1, err: err}
	if err == nil {
		o.dist = res
		o.counters = res.Counters
		o.perReduce = res.PerReduceRecords
		o.records = res.Counters.Task(mapreduce.CtrMapOutputRecords)
	}
	return o
}

// tracedJob is distrun.Run spelled out: NewCoordinator, StartWorkers and
// Wait, polling Progress to split the map phase from the reduce tail.
func (b *distBench) tracedJob(tr *tracer) outcome {
	jid := tr.newJob()
	var res *distrun.Result
	wall, cpu, err := measure(func() (err error) {
		res, err = b.compose(tr, jid)
		return err
	})
	return b.outcome(res, wall, cpu, err)
}

func (b *distBench) compose(tr *tracer, jid int) (*distrun.Result, error) {
	root := tr.begin(spanDistJob, 0, jid, 0)
	defer tr.end(root, 0, 0)
	opts := b.options()
	spawn := tr.begin(spanSpawn, root, jid, 0)
	id := tr.begin(spanNewCoord, spawn, jid, 0)
	coord, err := distrun.NewCoordinator(b.cfg, opts)
	tr.end(id, 0, 0)
	if err != nil {
		tr.end(spawn, 0, 0)
		return nil, err
	}
	defer coord.Stop()
	id = tr.begin(spanStartWorkers, spawn, jid, 0)
	pool, err := distrun.StartWorkers(coord.Addr(), opts.Workers, opts.Respawn)
	tr.end(id, int64(opts.Workers), 0)
	tr.end(spawn, int64(opts.Workers), 0)
	if err != nil {
		return nil, err
	}
	defer stopPool(pool)

	type waited struct {
		res *distrun.Result
		err error
	}
	done := make(chan waited, 1)
	go func() {
		res, err := coord.Wait()
		done <- waited{res, err}
	}()
	// The map phase runs from the end of spawning to the poll that first
	// sees every map committed; the reduce tail from there to Wait's return.
	phase := tr.begin(spanDistMapPhase, root, jid, 1)
	tick := time.NewTicker(progressPoll)
	defer tick.Stop()
	inMaps := true
	for {
		select {
		case w := <-done:
			tr.end(phase, 0, 0)
			if w.err == nil {
				pool.WaitIdle(2 * time.Second)
			}
			return w.res, w.err
		case <-tick.C:
			if inMaps && coord.Progress().MapsCommitted >= b.maps {
				tr.end(phase, 0, 0)
				inMaps = false
				phase = tr.begin(spanDistReduceTail, root, jid, 1)
			}
		}
	}
}

// stopPool kills any worker still running and waits for every one to exit.
func stopPool(pool *distrun.WorkerPool) {
	pool.Close()
	pool.WaitIdle(5 * time.Second)
}

// check compares the job's digest and per-reduce records with
// distrun.LocalOracle, computed once per run.
func (b *distBench) check(o outcome) error {
	b.oracleOnce.Do(func() { b.oracle, b.oracleErr = distrun.LocalOracle(b.cfg) })
	if b.oracleErr != nil {
		return fmt.Errorf("oracle: %w", b.oracleErr)
	}
	if o.dist.JobDigest != b.oracle.JobDigest {
		return fmt.Errorf("job digest %016x, oracle %016x", o.dist.JobDigest, b.oracle.JobDigest)
	}
	if !slices.Equal(o.perReduce, b.oracle.PerReduceRecords) {
		return fmt.Errorf("per-reduce records %v, oracle %v", o.perReduce, b.oracle.PerReduceRecords)
	}
	for _, name := range []string{mapreduce.CtrMapOutputRecords, mapreduce.CtrReduceOutputRecords} {
		if got, want := o.counters.Task(name), b.oracle.Counters.Task(name); got != want {
			return fmt.Errorf("%s = %d, oracle %d", name, got, want)
		}
	}
	return nil
}

// guard requires the shuffle to have carried realistically compressible
// data: wire bytes over map output bytes.
func (b *distBench) guard(o outcome) error {
	ratio := codecWireRatio(o.counters)
	if ratio <= minCodecRatio || ratio >= maxCodecRatio {
		return fmt.Errorf("invindex-dist codec ratio %.4f outside (%.2f, %.2f)", ratio, minCodecRatio, maxCodecRatio)
	}
	return nil
}

func codecWireRatio(c *mapreduce.Counters) float64 {
	return float64(c.Task(mapreduce.CtrReduceShuffleBytes)) / float64(c.Task(mapreduce.CtrMapOutputBytes))
}

func (b *distBench) layers(tr *tracer, untraced []outcome) (map[string]float64, map[string]summary, error) {
	vals := map[string]float64{}
	vals["distrun.spawn_s"] = median(tr.durations(spanSpawn))
	vals["distrun.map_phase_s"] = median(tr.durations(spanDistMapPhase))
	vals["distrun.reduce_tail_s"] = median(tr.durations(spanDistReduceTail))

	spreads := map[string]summary{}
	var requeued, ratio []float64
	for _, o := range untraced {
		if o.dist == nil {
			continue
		}
		requeued = append(requeued, float64(o.dist.RequeuedMaps))
		ratio = append(ratio, codecWireRatio(o.counters))
	}
	vals["distrun.requeued_maps"] = median(requeued)
	spreads["distrun.requeued_maps"] = summarize(requeued)
	spreads["wire_ratio"] = summarize(ratio)

	job, err := microbench.BuildJob(b.cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := inputProbes(tr, job, vals); err != nil {
		return nil, nil, err
	}
	if err := recordProbes(tr, job, vals); err != nil {
		return nil, nil, err
	}
	return vals, spreads, nil
}

// inputProbes reads every split with the line reader, then tokenizes every
// line read.
func inputProbes(tr *tracer, job *mapreduce.Job, vals map[string]float64) error {
	splits, err := job.Input.Splits(job.Conf)
	if err != nil {
		return err
	}
	jid := tr.newJob()
	for _, sp := range splits {
		id := tr.begin(spanLineReader, 0, jid, 0)
		n, bytes, err := readSplit(sp, nil)
		tr.end(id, n, bytes)
		if err != nil {
			return err
		}
	}
	secs, _, bytes := tr.totals(spanLineReader)
	vals["inputformat.read_mb_per_s"] = float64(bytes) / 1e6 / secs

	// A second, untimed pass keeps the lines for the tokenizer.
	var lines [][]byte
	for _, sp := range splits {
		if _, _, err := readSplit(sp, func(l []byte) { lines = append(lines, append([]byte(nil), l...)) }); err != nil {
			return err
		}
	}
	words := 0
	id := tr.begin(spanTokenize, 0, jid, 0)
	for _, l := range lines {
		words += len(apps.Tokenize(l))
	}
	d := tr.end(id, int64(len(lines)), int64(words))
	vals["apps.tokenize.ns_per_line"] = float64(d.Nanoseconds()) / float64(len(lines))
	return nil
}

// readSplit reads every line of a file split, passing each to keep when it
// is not nil, and returns the line count and the bytes read.
func readSplit(sp mapreduce.InputSplit, keep func([]byte)) (lines, bytes int64, err error) {
	fs, ok := sp.(*inputformat.FileSplit)
	if !ok {
		return 0, 0, fmt.Errorf("split %T is not a file split", sp)
	}
	r, err := inputformat.NewLineReader(fs)
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	for {
		_, v, ok, err := r.Next()
		if err != nil || !ok {
			return lines, r.InputBytes(), err
		}
		lines++
		if keep != nil {
			keep(v.(*writable.Text).Data)
		}
	}
}
