// Command mhmbench is the repository benchmark: it generates a seeded
// workload, drives it through the detector's public entry points, checks
// every score bit for bit, and prints one JSON result line.
//
// Usage:
//
//	bash mhmbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this module (a nested module that reaches the parent
// module through a replace directive) into .bench_build/ and runs it.
// The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// carries the runner fingerprint (CPU model, bound score and train
// kernels, NumCPU, GOMAXPROCS, Go version, seed) and the workload's
// measured traffic properties (events and encoded bytes per interval,
// occupancy, flag and alarm rates, attack-interval share).
//
// # Workloads
//
// paper-replay: one secure core replays a capture of the paper task set
// into a paper-scale detector (δ = 2 KB, L = 1472, variance-selected L′,
// J = 5, 10 restarts). The capture has three segments, one per paper
// attack (app-addition, shellcode, rootkit-lkm); each is a clean lead-in
// followed by the attack, stitched onto one continuous clock. The loop
// is closed: each interval's encoded records are decoded
// (trace.Reader.ReadBatch) and pushed through core.TraceScorer.Feed,
// then FlushAt the 10 ms boundary yields the verdict. It exists because
// it is the paper's deployment and the fused path the roadmap targets:
// about 520 bus bursts and 3% cell occupancy per interval, so decode and
// snoop carry most of the work.
//
// scan-dense: the same detector and the same event times and burst
// counts, with every address redrawn uniformly over the monitored
// region. Occupancy rises to about 29%, above the 25% dense/sparse
// routing threshold, and nearly every interval alarms. Decode and snoop
// work equals paper-replay's, so a difference between the two isolates
// collect, projection and verdict/alarm cost.
//
// fleet-refresh: fleet.Sim (the path mhmfleet -refresh drives) runs a
// stream population with workers = NumCPU, a 1% anomaly fault and a
// fleet-wide hot swap, with refresh.Loop installed as the model
// maintainer behind a benchmark-side wrapper. Each run drives a sequence
// of independently seeded sims until the time budget is spent. It is the
// only workload where fleet routing, admission, registry swaps and the
// refresh writes (sketch updates, warm PCA/EM, θ recalibration) run
// beside the scoring reads.
//
// # Metrics
//
// The untraced run (--trace 0) reports the end-to-end metrics:
//
//   - intervals_per_s: intervals scored per wall second. Replays: the
//     rate 90% of the run's capture passes met or beat, each pass's
//     rate taken over its fastest 99% of intervals (see stallTrim in
//     replay.go for why each pass's slowest 1% is set aside).
//     fleet-refresh:
//     admitted intervals over the summed Sim.Run wall time of the run's
//     sims (a mean, because sims differ in how many full rebuilds their
//     refresh loop runs).
//   - interval_p90_us: replays, the wall time from handing an
//     interval's encoded records to the path until its verdict, decode
//     included. fleet-refresh, the wall time of one interval boundary —
//     the sim scores every stream's interval as one batch and then runs
//     the verdict pass, refreshes included — timed from the boundary's
//     first verdict to the next boundary's; p90 over the run's
//     boundaries, which falls among the boundaries that refresh.
//   - setup_s: generated inputs to ready-to-score, median of the run's
//     set-ups: core.Train and NewTraceScorer for the replays,
//     fleet.NewSim and refresh.NewLoop for fleet-refresh. Input
//     generation is excluded.
//   - heap_mb: the heap the program's objects retain: the live heap a
//     collection marks at the end of the timed loop while they are
//     referenced, less the live heap once they are released, so the
//     capture, references and histograms the benchmark holds cancel.
//     Replays: the detector, the TraceScorer and the last pass's alarm
//     runtime. fleet-refresh: the sim, its registry and the refresh
//     loop after each Sim.Run, median over sims.
//   - auc: how well log density separates attack intervals from clean
//     ones: attack vs. lead-in intervals (paper-replay), scan intervals
//     vs. the held-out clean calibration set (scan-dense), anomaly-fault
//     streams vs. clean streams (fleet-refresh; median over sims).
//
// The traced run (--trace 1) alternates untraced and traced capture
// passes (replays) or sims (fleet-refresh) over the budget, so both see
// the same host conditions and bench.trace_overhead_frac compares like
// with like. Spans sit around the benchmark's own calls into each layer;
// nothing inside the program is traced. score.mix_ns and fleet.gen_ns
// are timed in separate loops after the passes. The per-layer metrics,
// the layer they time, and the end-to-end metric and workload each
// should move:
//
//	trace.read_ns, trace.events, trace.bytes        ReadBatch      intervals_per_s, interval_p50_us on paper-replay (equal in absolute terms on scan-dense)
//	memometer.snoop_ns, .accepted_frac, .overruns    SnoopBatch     same as trace.*
//	memometer.collect_ns, heatmap.nnz, .runs,        Tick +         interval_p50_us on paper-replay; must not rise on scan-dense
//	  heatmap.occupancy                              CollectSparse
//	score.sparse_ns, score.mix_ns                    ScoreSparse,   interval_p50_us, interval_p90_us on scan-dense (NNZ ~10x higher)
//	                                                 ScoreReduced
//	core.verdict_ns, alarm.raised_frac, core.fp_rate θ + alarm      interval_p90_us on scan-dense; no change predicted on paper-replay
//	core.train_s, pca.train_s, gmm.train_s           core/pca/gmm   setup_s on both replays (fleet-refresh: its small base model)
//	                                                 .Train
//	refresh.observe_ns, .refresh_ms, .refreshes,     Loop.Observe   intervals_per_s on fleet-refresh
//	  .full_rebuild_frac, .share
//	fleet.run_s, .admitted, .shed, .shed_frac,       Sim.Run,       intervals_per_s on fleet-refresh; the sim_* values come
//	  .swaps, .dropped_intervals, .gen_ns,           Workload.      from the virtual clock and are simulated, not wall time
//	  .sim_p99_interval_us, .sim_p99_alarm_delivery_us VectorInto
//	bench.unattributed_frac                          1 − traced stage sum / untraced end-to-end time, median over pass pairs, replays; must stay within ±10%
//	bench.trace_overhead_frac                        1 − traced/untraced intervals_per_s
//	bench.alloc_bytes_per_interval                   heap bytes allocated per interval by the traced passes or sims
//	bench.interval_p50_us                            median interval latency of the untraced passes (boundary time on fleet-refresh)
//
// Why p50 and the plain mean rate are not the replays' gated metrics:
// on a shared 2-vCPU runner, host interference comes in phases during
// which every interval runs about 1.6x slower, so the latency
// distribution is bimodal (modes near 8 and 13 µs on paper-replay) and
// the median falls in whichever mode the run's share of slow phases
// favours, moving by up to a third between 30 s runs of the same code;
// p90 and the rate 90% of passes sustain sit inside the slow mode and
// move far less. The host also stalls the process for milliseconds at a
// time: about 0.5% of intervals absorb a stall, yet they carry 10-27% of
// the wall time, so the rate of whole passes moved by up to 47%
// IQR/median between runs where the rate of each pass's fastest 99% of
// intervals moved by under 5%.
//
// A layer a workload does not exercise reports 0 for its metrics.
//
// # Correctness
//
// Every scored density is compared bit for bit with a reference computed
// at set-up (Detector.LogDensity on the generator's own dense MHMs for
// the replays; the scoring model's engine on the generator's vector for
// fleet-refresh). The traced replay composes the layers itself and is
// held to the same reference bits, so it matches TraceScorer's output.
// A mismatch, an error, a missing or extra verdict, a dropped interval,
// or an unattributed share outside tolerance marks the run incorrect: the
// result is printed with correct=false and the exit code is 1.
//
// # Capture size
//
// The paper capture is 900 intervals (3 segments of 1.5 s lead-in and
// 1.5 s attack) at about 10 KB of encoded trace (20-byte records) per
// interval, about 9 MB in all. A run replays this bounded capture in
// passes, rewinding the scorer's device clock between passes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/score"
	"github.com/memheatmap/mhm/internal/train"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricSpec{
	{"intervals_per_s", "1/s"},
	{"interval_p90_us", "us"},
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"auc", "ratio"},
}

// perLayer are the traced metrics every workload reports (0 where the
// workload does not exercise the layer).
var perLayer = []metricSpec{
	{"trace.read_ns", "ns"},
	{"trace.events", "count"},
	{"trace.bytes", "B"},
	{"memometer.snoop_ns", "ns"},
	{"memometer.accepted_frac", "ratio"},
	{"memometer.overruns", "count"},
	{"memometer.collect_ns", "ns"},
	{"heatmap.nnz", "count"},
	{"heatmap.runs", "count"},
	{"heatmap.occupancy", "ratio"},
	{"score.sparse_ns", "ns"},
	{"score.mix_ns", "ns"},
	{"core.verdict_ns", "ns"},
	{"alarm.raised_frac", "ratio"},
	{"core.fp_rate", "ratio"},
	{"core.train_s", "s"},
	{"pca.train_s", "s"},
	{"gmm.train_s", "s"},
	{"refresh.observe_ns", "ns"},
	{"refresh.refresh_ms", "ms"},
	{"refresh.refreshes", "count"},
	{"refresh.full_rebuild_frac", "ratio"},
	{"refresh.share", "ratio"},
	{"fleet.run_s", "s"},
	{"fleet.admitted", "count"},
	{"fleet.shed", "count"},
	{"fleet.shed_frac", "ratio"},
	{"fleet.swaps", "count"},
	{"fleet.dropped_intervals", "count"},
	{"fleet.gen_ns", "ns"},
	{"fleet.sim_p99_interval_us", "us"},
	{"fleet.sim_p99_alarm_delivery_us", "us"},
	{"bench.unattributed_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.alloc_bytes_per_interval", "B"},
	{"bench.interval_p50_us", "us"},
}

// unattributedTolerance bounds bench.unattributed_frac on the replays:
// the traced stage spans must sum to the untraced end-to-end interval
// time within 10% either way.
const unattributedTolerance = 0.10

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-replay", "scan-dense", "fleet-refresh"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the runner a result was measured on.
type fingerprint struct {
	CPU         string `json:"cpu"`
	ScoreKernel string `json:"score_kernel"`
	TrainKernel string `json:"train_kernel"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Seed        int64  `json:"seed"`
}

// info is the line printed before the result: who ran it, on what.
type info struct {
	Workload    string             `json:"workload"`
	Traced      bool               `json:"traced"`
	Seconds     int                `json:"seconds"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Traffic     map[string]float64 `json:"traffic"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int64
	// failures describes why the run is incorrect (empty when correct).
	failures []string
	values   map[string]float64
	traffic  map[string]float64
}

// fail records one correctness failure.
func (o *outcome) fail(format string, args ...any) {
	if len(o.failures) < 16 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runOptions are the command-line knobs plus the workload size.
type runOptions struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	size     sizes
}

// run dispatches one workload.
func run(o runOptions) (*outcome, error) {
	switch o.workload {
	case "paper-replay", "scan-dense":
		return runReplay(o)
	case "fleet-refresh":
		return runFleet(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
}

// assemble turns an outcome into the result object, reporting exactly
// the end-to-end or the per-layer metric set.
func assemble(out *outcome, traced bool) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   len(out.failures) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.values[s.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not measured", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return res, nil
}

// cpuModel returns the "model name" line of /proc/cpuinfo, or the
// architecture where that file does not exist.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func newFingerprint(seed int64) fingerprint {
	return fingerprint{
		CPU:         cpuModel(),
		ScoreKernel: score.Kernel(),
		TrainKernel: train.Kernel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Seed:        seed,
	}
}

// errIncorrect marks a run whose outputs failed the correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mhmbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-replay, scan-dense or fleet-refresh")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 reports the traced per-layer metrics, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d must be at least 1", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace %d must be 0 or 1", *traceFlag)
	}
	o := runOptions{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		size:     fullSize(),
	}
	out, err := run(o)
	if err != nil {
		return err
	}
	res, err := assemble(out, o.traced)
	if err != nil {
		return err
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "mhmbench: FAIL:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(info{
		Workload:    o.workload,
		Traced:      o.traced,
		Seconds:     *seconds,
		Fingerprint: newFingerprint(o.seed),
		Traffic:     out.traffic,
	}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mhmbench:", err)
		os.Exit(1)
	}
}
