// Command perfbench is mrmicro's benchmark. One invocation runs one workload
// for a fixed time and prints, as the last line of standard output, a JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics of
// a separate traced run (-trace 1). Every job's output is checked against
// the repository's own oracles, and each workload's mechanism guard must
// hold or the run fails. See README.md for the workloads and metrics.
//
//	go run . -workload avg-tiny -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrmicro/internal/distrun"
	"mrmicro/internal/localrun"
	"mrmicro/internal/mapreduce"
)

// setupRounds is how many times a timed run sets its workload up; setup_s
// is the median, so one slow round does not move it.
const setupRounds = 3

// minJobs is the fewest timed jobs a run measures, however long they take.
const minJobs = 3

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a timed run reports on every workload.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"records_per_s", "1/s"},
	{"sweep_points_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics a traced run reports. A metric that does not
// apply to the workload reads 0 and is listed under not_applicable in the
// run's detail line.
var perLayer = []metricDef{
	{"writable.ns_per_rec", "ns/rec"},
	{"writable.allocs_per_rec", "allocs/rec"},
	{"kvbuf.sort.ns_per_rec", "ns/rec"},
	{"kvbuf.sort.allocs_per_rec", "allocs/rec"},
	{"kvbuf.codec.compress_mb_per_s", "MB/s"},
	{"kvbuf.codec.decompress_mb_per_s", "MB/s"},
	{"kvbuf.codec.ratio", "ratio"},
	{"kvbuf.merge.mb_per_s", "MB/s"},
	{"kvbuf.merge.ns_per_rec", "ns/rec"},
	{"kvbuf.group.ns_per_rec", "ns/rec"},
	{"localrun.map.task_s_p50", "s"},
	{"localrun.map.task_s_p90", "s"},
	{"localrun.fetch.mb_per_s", "MB/s"},
	{"localrun.fetch.ms_p50", "ms"},
	{"localrun.fetch.retries", "count"},
	{"localrun.reduce.task_s_p50", "s"},
	{"localrun.reduce.task_s_max", "s"},
	{"localrun.map_phase_s", "s"},
	{"localrun.overlap_s", "s"},
	{"localrun.reduce_tail_s", "s"},
	{"localrun.spill.count", "count"},
	{"localrun.spill.collect_stall_s", "s"},
	{"localrun.spill.overlap_s", "s"},
	{"localrun.merge.disk_passes", "count"},
	{"localrun.merge.fetch_wait_s", "s"},
	{"inputformat.read_mb_per_s", "MB/s"},
	{"apps.tokenize.ns_per_line", "ns/line"},
	{"distrun.spawn_s", "s"},
	{"distrun.map_phase_s", "s"},
	{"distrun.reduce_tail_s", "s"},
	{"distrun.requeued_maps", "count"},
	{"microbench.point_ms_p50", "ms"},
	{"microbench.point_ms_p90", "ms"},
	{"microbench.spec_build_ms_p50", "ms"},
	{"mrsim.sim_share", "ratio"},
	{"figures.pool_util", "ratio"},
	{"go.gc_cpu_frac", "ratio"},
	{"go.heap_allocs_per_rec", "allocs/rec"},
	{"trace.overhead_frac", "ratio"},
}

// workload is one benchmark input set. setup builds its inputs under the
// current temporary directory and returns a ready instance.
type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// job runs one untraced job, timing only the call into the program.
	job() outcome
	// tracedJob runs the same job composed from the program's public
	// per-task calls, recording a span around each.
	tracedJob(tr *tracer) outcome
	// layers runs the per-layer probes and derives the workload's layer
	// metrics from the spans and the untraced outcomes. spreads holds the
	// run-to-run spread of count-type metrics that are not exact.
	layers(tr *tracer, untraced []outcome) (vals map[string]float64, spreads map[string]summary, err error)
	// check compares an outcome with the workload's oracle.
	check(o outcome) error
	// guard fails when the job did not exercise the mechanism the workload
	// exists for.
	guard(o outcome) error
}

// outcome is one job's result and measurements.
type outcome struct {
	wall, cpu time.Duration // around the call into the program
	records   int64         // map output records (simulated ones on the sweep)
	points    int           // sweep points completed (one per job off the sweep)

	counters  *mapreduce.Counters
	perReduce []int64
	local     *localrun.Result
	dist      *distrun.Result
	tables    string // rendered sweep results
	err       error
}

var workloads = []workload{
	{"avg-tiny", setupAvgTiny},
	{"skew-spill", setupSkewSpill},
	{"invindex-dist", setupInvIndexDist},
	{"paper-sweep", setupPaperSweep},
}

// nproc is the processor budget every workload's parallelism is capped at.
var nproc = runtime.NumCPU()

func main() {
	distrun.MaybeWorker() // spawned dist workers are this binary re-executed
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: avg-tiny, skew-spill, invindex-dist or paper-sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	outDir := flag.String("out", ".bench_build", "directory for scratch data and trace files")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traceFlag == 1 {
		res, err = tracedRun(w, *seed, budget, scratch, *outDir)
	} else {
		res, err = timedRun(w, *seed, budget, scratch)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.detail["env"] = environment(*seed)
	res.detail["workload"] = w.name
	det, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("detail %s\n", det)
	last, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(last))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line a run prints.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	final  finalLine
	detail map[string]any
}

// setTMPDIR points the program's temporary files (generated corpora,
// reduce-side merge runs) at dir. Spawned dist workers inherit it.
func setTMPDIR(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", dir)
}

// setUp runs one setup round in a fresh directory and a warm-up job,
// returning the instance, the warm-up outcome and the round's duration.
func setUp(w *workload, seed int64, dir string) (instance, outcome, time.Duration, error) {
	if err := setTMPDIR(dir); err != nil {
		return nil, outcome{}, 0, err
	}
	t0 := time.Now()
	inst, err := w.setup(seed)
	if err != nil {
		return nil, outcome{}, 0, fmt.Errorf("setup: %w", err)
	}
	warm := inst.job()
	return inst, warm, time.Since(t0), nil
}

// timedRun is the untraced run: setup rounds, then jobs until the budget is
// spent, then the output checks and the end-to-end metrics.
func timedRun(w *workload, seed int64, budget time.Duration, scratch string) (*result, error) {
	var inst instance
	var checked []outcome
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		dir := filepath.Join(scratch, "setup-"+strconv.Itoa(i))
		in, warm, d, err := setUp(w, seed, dir)
		if err != nil {
			return nil, err
		}
		inst = in
		checked = append(checked, warm)
		setups = append(setups, d.Seconds())
		if i+1 < setupRounds {
			os.RemoveAll(dir)
		}
	}

	var timed []outcome
	var rss []float64
	deadline := time.Now().Add(budget)
	for len(timed) < minJobs || time.Now().Before(deadline) {
		runtime.GC() // start every job from the same heap state
		resetPeakRSS()
		timed = append(timed, inst.job())
		rss = append(rss, peakRSSMB())
	}

	checked = append(checked, timed...)
	failures := checkAll(inst, checked)
	failed := len(failures)
	if err := guardAll(inst, timed); err != nil {
		return nil, err
	}

	ok := succeeded(timed)
	wall := walls(ok)
	var rate, pps, cpu []float64
	for i, o := range ok {
		rate = append(rate, float64(o.records)/wall[i])
		pps = append(pps, float64(o.points)/wall[i])
		cpu = append(cpu, o.cpu.Seconds())
	}
	sums := map[string]summary{
		"job_s":              summarize(wall),
		"records_per_s":      summarize(rate),
		"sweep_points_per_s": summarize(pps),
		"cpu_s":              summarize(cpu),
		"peak_rss_mb":        summarize(rss),
		"setup_s":            summarize(setups),
	}
	res := &result{
		final: finalLine{Correct: failed == 0, Attempted: len(checked), Failed: failed, Metrics: map[string]metricValue{}},
		detail: map[string]any{
			"mode":        "timed",
			"summaries":   sums,
			"job_s_all":   wall,
			"failed_frac": float64(failed) / float64(len(checked)),
			"failures":    failures,
			"guards":      "held",
		},
	}
	for _, m := range endToEnd {
		v := sums[m.name].Median
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
		res.final.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

// tracedRun is the per-layer run: half the budget on untraced jobs, half on
// traced ones, then the layer probes. It writes the spans as a Chrome trace.
func tracedRun(w *workload, seed int64, budget time.Duration, scratch, outDir string) (*result, error) {
	inst, warm, _, err := setUp(w, seed, filepath.Join(scratch, "setup-0"))
	if err != nil {
		return nil, err
	}
	checked := []outcome{warm}

	var untraced []outcome
	var gcFrac, allocsPerRec []float64
	deadline := time.Now().Add(budget / 2)
	for len(untraced) < 2 || time.Now().Before(deadline) {
		runtime.GC()
		before := readRuntime()
		o := inst.job()
		after := readRuntime()
		untraced = append(untraced, o)
		if cpu := after.selfCPU - before.selfCPU; cpu > 0 {
			gcFrac = append(gcFrac, (after.gcCPU-before.gcCPU)/cpu)
		}
		if o.records > 0 {
			allocsPerRec = append(allocsPerRec, float64(after.allocs-before.allocs)/float64(o.records))
		}
	}

	tr := newTracer()
	var traced []outcome
	deadline = time.Now().Add(budget / 2)
	for len(traced) < 1 || time.Now().Before(deadline) {
		runtime.GC()
		traced = append(traced, inst.tracedJob(tr))
	}

	layer, spreads, err := inst.layers(tr, succeeded(untraced))
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	layer["go.gc_cpu_frac"] = median(gcFrac)
	layer["go.heap_allocs_per_rec"] = median(allocsPerRec)
	layer["trace.overhead_frac"] = median(walls(succeeded(traced)))/median(walls(succeeded(untraced))) - 1

	checked = append(checked, untraced...)
	checked = append(checked, traced...)
	failures := checkAll(inst, checked)
	failed := len(failures)
	if err := guardAll(inst, untraced); err != nil {
		return nil, err
	}

	tracePath := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}

	res := &result{
		final: finalLine{Correct: failed == 0, Attempted: len(checked), Failed: failed, Metrics: map[string]metricValue{}},
		detail: map[string]any{
			"mode":        "traced",
			"trace_file":  tracePath,
			"untraced":    summarize(walls(succeeded(untraced))),
			"traced":      summarize(walls(succeeded(traced))),
			"failed_frac": float64(failed) / float64(len(checked)),
			"failures":    failures,
			"guards":      "held",
		},
	}
	var na []string
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			na = append(na, m.name)
			v = 0
		}
		res.final.Metrics[m.name] = metricValue{v, m.unit}
	}
	res.detail["not_applicable"] = na
	res.detail["count_spreads"] = spreads
	return res, nil
}

// checkAll checks every outcome and returns why each failed one failed.
func checkAll(inst instance, outs []outcome) []string {
	var why []string
	for _, o := range outs {
		err := o.err
		if err == nil {
			err = inst.check(o)
		}
		if err != nil {
			why = append(why, err.Error())
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", err)
		}
	}
	return why
}

// guardAll applies the mechanism guard to every job that ran cleanly.
func guardAll(inst instance, outs []outcome) error {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if err := inst.guard(o); err != nil {
			return fmt.Errorf("mechanism guard: %w", err)
		}
	}
	return nil
}

// succeeded returns the outcomes without an error, or all of them when
// every job failed (the run then reports correct=false with their times).
func succeeded(outs []outcome) []outcome {
	var ok []outcome
	for _, o := range outs {
		if o.err == nil {
			ok = append(ok, o)
		}
	}
	if len(ok) == 0 {
		return outs
	}
	return ok
}

func walls(outs []outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.wall.Seconds()
	}
	return xs
}

// measure times f and the CPU the process and its reaped children spent
// while it ran.
func measure(f func() error) (wall, cpu time.Duration, err error) {
	c0 := cpuTime()
	t0 := time.Now()
	err = f()
	wall = time.Since(t0)
	cpu = cpuTime() - c0
	return wall, cpu, err
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// cpuTime is the user+system time of this process and its reaped children.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// resetPeakRSS restarts this process's resident-memory high-water mark, so
// each job's peak is its own. Where the kernel does not allow it, the peak
// stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident memory since the last reset
// plus that of its largest reaped child (a dist worker), in MiB.
func peakRSSMB() float64 {
	var self, kids syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	selfKiB := self.Maxrss // lifetime peak, in KiB on Linux
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
					selfKiB = kib
				}
			}
		}
	}
	return float64(selfKiB+kids.Maxrss) / 1024
}

type runtimeSample struct {
	allocs  uint64  // heap objects allocated
	gcCPU   float64 // GC CPU seconds (runtime estimate)
	selfCPU float64 // process user+system seconds
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return runtimeSample{
		allocs:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		selfCPU: (tv(self.Utime) + tv(self.Stime)).Seconds(),
	}
}

// environment records what the numbers were measured on.
func environment(seed int64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"seed":       seed,
	}
}

// gitCommit reads the checked-out commit from .git without running git,
// so a checkout that is not a repository reads "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// parallel runs f(lane, i) for i in [0, n) on at most workers goroutines and
// returns the first error by index.
func parallel(n, workers int, f func(lane, i int) error) error {
	workers = max(1, min(workers, n))
	errs := make([]error, n)
	next := make(chan int)
	done := make(chan struct{})
	for lane := 0; lane < workers; lane++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				errs[i] = f(lane, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for lane := 0; lane < workers; lane++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
