package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrmicro/internal/figures"
	"mrmicro/internal/microbench"
	"mrmicro/internal/netsim"
	"mrmicro/internal/simcache"
)

// Span names of the traced sweep and the sim probes.
const (
	spanSweep     = "figures.sweep"
	spanPoint     = "microbench.Run"
	spanSpecBuild = "microbench.BuildSpec"
)

// specProbeStride samples every n-th point for the spec-build probe, which
// runs points one at a time.
const specProbeStride = 4

// sweepWorkers is the timed sweep's pool size. On a two-vCPU host the same
// deterministic sweep took 2.7-4.4 s across repeats at two workers (quartile
// spread 0.30 of the median) and 6.5-7.2 s at one (0.08), so the sweep runs
// one point at a time; the uncached reference runs at nproc.
const sweepWorkers = 1

// sweepPoint is one point of a paper figure.
type sweepPoint struct {
	figure, series string
	gb             float64
	cfg            microbench.Config
}

// paperPoints enumerates the interconnect figures' grids: fig2a–c (MRv1,
// Cluster A), fig3a–c (YARN, Cluster A) and fig8a–b (IPoIB vs RDMA,
// Cluster B), with the workload seed driving MR-RAND and MR-SKEW.
func paperPoints(seed int64) []sweepPoint {
	var pts []sweepPoint
	add := func(fig, series string, gbs []float64, base microbench.Config) {
		for _, gb := range gbs {
			pts = append(pts, sweepPoint{fig, series, gb, base.WithShuffleSize(int64(gb * (1 << 30)))})
		}
	}
	clusterA := []netsim.Profile{netsim.OneGigE, netsim.TenGigE, netsim.IPoIBQDR32}
	for i, p := range microbench.Patterns() {
		for _, gen := range []struct {
			fig    string
			engine microbench.Engine
			slaves int
		}{{"fig2", microbench.EngineMRv1, 4}, {"fig3", microbench.EngineYARN, 8}} {
			fig := gen.fig + string(rune('a'+i))
			for _, prof := range clusterA {
				add(fig, prof.Name, []float64{8, 16, 24, 32}, microbench.Config{
					Pattern: p, Engine: gen.engine, Cluster: microbench.ClusterA,
					Slaves: gen.slaves, NumMaps: 4 * gen.slaves, NumReduces: 2 * gen.slaves,
					KeySize: 1024, ValueSize: 1024, Network: prof.Name, Seed: seed,
				})
			}
		}
	}
	for i, slaves := range []int{8, 16} {
		fig := "fig8" + string(rune('a'+i))
		for _, mode := range []struct {
			prof netsim.Profile
			rdma bool
		}{{netsim.IPoIBFDR56, false}, {netsim.RDMAFDR56, true}} {
			add(fig, mode.prof.Name, []float64{16, 32, 48}, microbench.Config{
				Pattern: microbench.MRAvg, Engine: microbench.EngineMRv1, Cluster: microbench.ClusterB,
				Slaves: slaves, NumMaps: 32, NumReduces: 16,
				KeySize: 1024, ValueSize: 1024, Network: mode.prof.Name, RDMAShuffle: mode.rdma, Seed: seed,
			})
		}
	}
	return pts
}

// setupPaperSweep enumerates and validates the sweep's points.
func setupPaperSweep(seed int64) (instance, error) {
	b := &sweepBench{points: paperPoints(seed)}
	for _, p := range b.points {
		if _, err := p.cfg.Normalize(); err != nil {
			return nil, fmt.Errorf("%s %s %gGB: %w", p.figure, p.series, p.gb, err)
		}
		b.cfgs = append(b.cfgs, p.cfg)
		b.records += p.cfg.PairsPerMap * int64(p.cfg.NumMaps)
	}
	return b, nil
}

// sweepBench runs the paper's interconnect figures on the simulated plane.
type sweepBench struct {
	points  []sweepPoint
	cfgs    []microbench.Config
	records int64 // simulated map output records over every point

	refOnce sync.Once
	ref     string
	refErr  error

	tracedJobs []int // tracer job ids of the traced sweeps
}

// render formats the results one point per line, every digit kept, so two
// sweeps compare byte for byte.
func (b *sweepBench) render(res []figures.PointResult) string {
	var sb strings.Builder
	for i, p := range b.points {
		fmt.Fprintf(&sb, "%s\t%s\t%gGB\t%s\t%d\n", p.figure, p.series, p.gb,
			strconv.FormatFloat(res[i].JobSeconds, 'g', -1, 64), res[i].ShuffleBytes)
	}
	return sb.String()
}

func (b *sweepBench) outcome(res []figures.PointResult, wall, cpu time.Duration, err error) outcome {
	o := outcome{wall: wall, cpu: cpu, err: err}
	if err == nil {
		o.tables = b.render(res)
		o.points = len(res)
		o.records = b.records
	}
	return o
}

// job runs every point through figures.Runner with a cold in-memory cache.
func (b *sweepBench) job() outcome {
	cache, err := simcache.New("")
	if err != nil {
		return outcome{err: err}
	}
	var res []figures.PointResult
	wall, cpu, err := measure(func() (err error) {
		res, err = figures.Runner{Workers: sweepWorkers, Cache: cache}.RunAll(b.cfgs)
		return err
	})
	return b.outcome(res, wall, cpu, err)
}

// tracedJob runs the points on sweepWorkers workers itself, one
// microbench.Run span per point.
func (b *sweepBench) tracedJob(tr *tracer) outcome {
	jid := tr.newJob()
	b.tracedJobs = append(b.tracedJobs, jid)
	res := make([]figures.PointResult, len(b.cfgs))
	wall, cpu, err := measure(func() error {
		root := tr.begin(spanSweep, 0, jid, 0)
		defer tr.end(root, int64(len(b.cfgs)), 0)
		return parallel(len(b.cfgs), sweepWorkers, func(lane, i int) error {
			id := tr.begin(spanPoint, root, jid, lane)
			r, err := microbench.Run(b.cfgs[i])
			tr.end(id, 1, 0)
			if err != nil {
				return err
			}
			res[i] = figures.PointResult{JobSeconds: r.JobSeconds(), ShuffleBytes: r.ShuffleBytes}
			return nil
		})
	})
	return b.outcome(res, wall, cpu, err)
}

// check compares the sweep byte for byte with a reference computed once per
// run by a runner without a cache and with another worker count.
func (b *sweepBench) check(o outcome) error {
	b.refOnce.Do(func() {
		res, err := figures.Runner{Workers: nproc}.RunAll(b.cfgs)
		if err != nil {
			b.refErr = err
			return
		}
		b.ref = b.render(res)
	})
	if b.refErr != nil {
		return fmt.Errorf("reference sweep: %w", b.refErr)
	}
	if o.tables != b.ref {
		return fmt.Errorf("sweep results differ from the uncached reference")
	}
	return nil
}

// guard requires every point to have simulated a job that shuffled data.
func (b *sweepBench) guard(o outcome) error {
	if o.points != len(b.points) {
		return fmt.Errorf("paper-sweep ran %d of %d points", o.points, len(b.points))
	}
	for _, line := range strings.Split(strings.TrimSpace(o.tables), "\n") {
		f := strings.Split(line, "\t")
		if f[3] == "0" || f[4] == "0" {
			return fmt.Errorf("paper-sweep point %q simulated no job", line)
		}
	}
	return nil
}

func (b *sweepBench) layers(tr *tracer, _ []outcome) (map[string]float64, map[string]summary, error) {
	vals := map[string]float64{}
	traced := map[int]bool{}
	for _, j := range b.tracedJobs {
		traced[j] = true
	}

	var pointMs []float64
	busy := map[int]float64{}
	for _, s := range tr.named(spanPoint) {
		if traced[s.job] {
			d := s.end.Sub(s.start).Seconds()
			pointMs = append(pointMs, d*1e3)
			busy[s.job] += d
		}
	}
	vals["microbench.point_ms_p50"] = percentile(pointMs, 50)
	vals["microbench.point_ms_p90"] = percentile(pointMs, 90)
	var util []float64
	for _, s := range tr.named(spanSweep) {
		util = append(util, busy[s.job]/(float64(sweepWorkers)*s.end.Sub(s.start).Seconds()))
	}
	vals["figures.pool_util"] = median(util)

	// Spec build against the whole point, one point at a time.
	jid := tr.newJob()
	var specMs []float64
	var specSecs, runSecs float64
	for i := 0; i < len(b.cfgs); i += specProbeStride {
		id := tr.begin(spanSpecBuild, 0, jid, 0)
		_, err := microbench.BuildSpec(b.cfgs[i])
		d := tr.end(id, 1, 0)
		if err != nil {
			return nil, nil, err
		}
		id = tr.begin(spanPoint, 0, jid, 0)
		_, err = microbench.Run(b.cfgs[i])
		r := tr.end(id, 1, 0)
		if err != nil {
			return nil, nil, err
		}
		specMs = append(specMs, d.Seconds()*1e3)
		specSecs += d.Seconds()
		runSecs += r.Seconds()
	}
	vals["microbench.spec_build_ms_p50"] = median(specMs)
	vals["mrsim.sim_share"] = 1 - specSecs/runSecs
	return vals, nil, nil
}
