package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/trace"
)

// latencyRange is the exact-histogram span for one interval's latency;
// slower intervals are kept individually.
const latencyRange = 250 * time.Microsecond

// stallTrim is the share of a pass's intervals its rate is taken over:
// the fastest 99%. On a shared runner the host stalls the process for
// milliseconds at a time; about 0.5% of intervals absorb a stall, and
// those few carry 10-27% of the loop's wall time, a share that changes
// from minute to minute. Setting each pass's slowest 1% aside keeps the
// stalls out and every interval the program itself makes slow in.
const stallTrim = 0.99

// replay holds one replay workload's prepared state.
type replay struct {
	in     *replayInputs
	cap    *capture
	det    *core.Detector
	ts     *core.TraceScorer
	setups []float64 // seconds of each core.Train + NewTraceScorer
	ref    []float64 // reference log density per interval
	theta  float64   // θ0.01
	batch  []trace.Access
	out    *outcome
}

// prepareReplay generates the capture, sets the detector and scorer up
// sz.ReplaySetups times (keeping the last), and computes the reference
// densities and θ0.01.
func prepareReplay(workload string, seed int64, sz sizes) (*replay, error) {
	in, err := genReplay(workload, seed, sz)
	if err != nil {
		return nil, err
	}
	rp := &replay{in: in, cap: in.cap, out: &outcome{values: map[string]float64{}, traffic: map[string]float64{}}}
	for i := 0; i < sz.ReplaySetups; i++ {
		t := time.Now()
		if rp.det, err = trainDetector(in, sz); err != nil {
			return nil, err
		}
		if rp.ts, err = rp.det.NewTraceScorer(intervalMicros, 1024); err != nil {
			return nil, err
		}
		rp.setups = append(rp.setups, since(t)/1e9)
	}
	if rp.theta, err = rp.det.Threshold(0.01); err != nil {
		return nil, err
	}
	rp.ref = make([]float64, len(in.cap.maps))
	maxCount := 0
	for i, m := range in.cap.maps {
		if rp.ref[i], err = rp.det.LogDensity(m); err != nil {
			return nil, err
		}
		maxCount = max(maxCount, in.cap.counts[i])
	}
	rp.batch = make([]trace.Access, maxCount)
	return rp, nil
}

// runReplay prepares a replay workload, checks the reference and
// measures either the untraced or the traced loop.
func runReplay(o runOptions) (*outcome, error) {
	sz := o.size
	rp, err := prepareReplay(o.workload, o.seed, sz)
	if err != nil {
		return nil, err
	}
	in, out := rp.in, rp.out
	auc, fp, err := rp.quality(in)
	if err != nil {
		return nil, err
	}
	if err := rp.traffic(auc); err != nil {
		return nil, err
	}
	v := out.values
	var reduced [][]float64
	if o.traced {
		if reduced, err = rp.reduced(); err != nil {
			return nil, err
		}
		if err := trainLayers(in, sz, v); err != nil {
			return nil, err
		}
	}
	// The timed loops need only the encoded capture and the reference.
	in.train, in.calib, in.cap.maps = nil, nil, nil

	plain, err := rp.untraced()
	if err != nil {
		return nil, err
	}
	loops := []*loopStats{plain}
	var tr *tracedStats
	if o.traced {
		if tr, err = rp.traced(); err != nil {
			return nil, err
		}
		loops = append(loops, &tr.loopStats)
	}
	if err := measure(o.budget, loops...); err != nil {
		return nil, err
	}
	v["intervals_per_s"] = plain.sustained()
	v["interval_p90_us"] = plain.lat.quantile(0.90) / 1e3
	v["bench.interval_p50_us"] = plain.lat.quantile(0.50) / 1e3
	v["setup_s"] = median(rp.setups)
	v["auc"] = auc
	if o.traced {
		if err := rp.ledger(tr, plain, reduced, fp); err != nil {
			return nil, err
		}
	}
	// The program's heap: the live heap while the detector, the scorer
	// and the last pass's alarm runtime are referenced, less the live
	// heap once they are released. The capture, reference and
	// histograms the benchmark holds are in both figures and cancel.
	live := liveHeapMB()
	rp.det, rp.ts = nil, nil
	for _, l := range loops {
		l.pass = nil
	}
	v["heap_mb"] = live - liveHeapMB()
	runtime.KeepAlive(rp)
	runtime.KeepAlive(loops)
	return out, nil
}

// ledger fills the traced run's per-layer metrics and applies the
// stage-sum check.
func (rp *replay) ledger(tr *tracedStats, plain *loopStats, reduced [][]float64, fp float64) error {
	in, v, out := rp.in, rp.out.values, rp.out
	n := float64(tr.intervals)
	v["trace.read_ns"] = tr.read / n
	v["trace.events"] = tr.events / n
	v["trace.bytes"] = float64(len(in.cap.data)) / float64(len(in.cap.counts))
	v["memometer.snoop_ns"] = tr.snoop / n
	v["memometer.accepted_frac"] = float64(tr.dev.Accepted) / float64(tr.dev.Snooped)
	v["memometer.overruns"] = float64(tr.dev.Overruns)
	v["memometer.collect_ns"] = tr.collect / n
	v["heatmap.nnz"] = tr.nnz / n
	v["heatmap.runs"] = tr.runs / n
	v["heatmap.occupancy"] = tr.nnz / n / float64(in.cap.region.Cells())
	v["score.sparse_ns"] = tr.score / n
	var err error
	if v["score.mix_ns"], err = rp.mixCost(reduced); err != nil {
		return err
	}
	v["core.verdict_ns"] = tr.verdict / n
	v["alarm.raised_frac"] = tr.raised / n
	v["core.fp_rate"] = fp
	f := unattributed(tr, plain)
	v["bench.unattributed_frac"] = f
	v["bench.trace_overhead_frac"] = 1 - tr.mean()/plain.mean()
	v["bench.alloc_bytes_per_interval"] = tr.allocs / n
	if !(math.Abs(f) <= unattributedTolerance) {
		out.fail("unattributed share %.4f is outside the ±%.2f tolerance", f, unattributedTolerance)
	}
	if tr.dev.Overruns != 0 {
		out.fail("%d Memometer overruns in the traced replay", tr.dev.Overruns)
	}
	for _, name := range []string{"refresh.observe_ns", "refresh.refresh_ms", "refresh.refreshes",
		"refresh.full_rebuild_frac", "refresh.share", "fleet.run_s", "fleet.admitted", "fleet.shed",
		"fleet.shed_frac", "fleet.swaps", "fleet.dropped_intervals", "fleet.gen_ns",
		"fleet.sim_p99_interval_us", "fleet.sim_p99_alarm_delivery_us"} {
		v[name] = 0
	}
	return nil
}

// unattributed is the share of the end-to-end time the stage spans do
// not account for: 1 − (traced stage sum) / (untraced wall time), taken
// per pair of passes over the same capture and reported as the median
// over pairs. measure runs the two loops' passes alternately, so each
// pair saw the same host conditions, and the median keeps a host stall
// that lands in one pass out. Cost the fused path adds beyond the layer
// calls (TraceScorer's resubmission loop, its emit callback) shows here
// as a positive share, stages that double count as a negative one.
func unattributed(tr *tracedStats, plain *loopStats) float64 {
	n := min(len(tr.passStages), len(plain.passWall))
	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = tr.passStages[i] / plain.passWall[i]
	}
	return 1 - median(ratios)
}

// quality scores the workload's separation from the reference
// densities: AUC of attack intervals against clean ones (the lead-ins,
// or the held-out calibration set when the capture has none), and the
// θ0.01 flag rate on those clean intervals.
func (rp *replay) quality(in *replayInputs) (auc, fp float64, err error) {
	var neg, pos []float64
	for i, lp := range rp.ref {
		if rp.cap.attack[i] {
			pos = append(pos, -lp)
		} else {
			neg = append(neg, -lp)
		}
	}
	if len(neg) == 0 {
		for _, m := range in.calib {
			lp, err := rp.det.LogDensity(m)
			if err != nil {
				return 0, 0, err
			}
			neg = append(neg, -lp)
		}
	}
	if auc, err = stats.AUC(neg, pos); err != nil {
		return 0, 0, err
	}
	flagged := 0
	for _, x := range neg {
		if -x < rp.theta {
			flagged++
		}
	}
	return auc, float64(flagged) / float64(len(neg)), nil
}

// traffic records the capture's measured properties.
func (rp *replay) traffic(auc float64) error {
	c := rp.cap
	n := float64(len(c.counts))
	rt, err := alarm.NewRuntime(alarm.Config{})
	if err != nil {
		return err
	}
	nnz, flagged, raised, attacked := 0, 0, 0, 0
	for i, m := range c.maps {
		nnz += m.Sparsify(nil).NNZ()
		if rp.ref[i] < rp.theta {
			flagged++
		}
		if rt.Observe(rp.ref[i] < rp.theta, m.End); rt.Raised() {
			raised++
		}
		if c.attack[i] {
			attacked++
		}
	}
	t := rp.out.traffic
	t["intervals"] = n
	t["events_per_interval"] = float64(c.events()) / n
	t["encoded_bytes_per_interval"] = float64(len(c.data)) / n
	t["occupancy"] = float64(nnz) / n / float64(c.region.Cells())
	t["flag_rate"] = float64(flagged) / n
	t["alarm_raised_frac"] = float64(raised) / n
	t["attack_interval_share"] = float64(attacked) / n
	t["auc"] = auc
	return nil
}

// loopStats is one replay loop: its pass over the capture and what its
// timed passes measured.
type loopStats struct {
	pass      func(timed bool) error
	perPass   int // intervals in one pass
	intervals int64
	passNs    float64   // summed wall time of the timed passes
	passWall  []float64 // wall time of each timed pass, ns
	allocs    float64   // heap bytes allocated by the timed passes
	heap      allocCounter

	// Untraced loop only: interval latencies, over the run and over the
	// current pass, and each timed pass's rate over its fastest
	// stallTrim share of intervals.
	lat      *durHist
	passLat  []float64
	passRate []float64
}

func newLoopStats(perPass int, pass func(timed bool) error) *loopStats {
	return &loopStats{pass: pass, perPass: perPass, heap: newAllocCounter()}
}

// record adds one timed interval's latency.
func (s *loopStats) record(d time.Duration) {
	s.lat.add(d)
	s.passLat = append(s.passLat, float64(d))
}

// sustained is the rate 90% of the timed passes met or beat. Host
// interference on a shared runner also comes in phases that make every
// interval about 1.6x slower; a median or mean lands wherever the run's
// share of slow phases puts it, while the slow-phase rate varies far
// less run to run.
func (s *loopStats) sustained() float64 { return quantile(s.passRate, 0.10) }

// trimmedRate is intervals per second over the fastest ceil(q·n) of the
// latencies in ns (sorted in place).
func trimmedRate(lat []float64, q float64) float64 {
	slices.Sort(lat)
	k := int(math.Ceil(q * float64(len(lat))))
	sum := 0.0
	for _, d := range lat[:k] {
		sum += d
	}
	return float64(k) / (sum / 1e9)
}

// mean is intervals per second over all timed passes, for comparing
// loops that were interleaved and so saw the same phases.
func (s *loopStats) mean() float64 { return float64(s.intervals) / (s.passNs / 1e9) }

// timePass runs one timed pass and records its wall time and allocations.
func (s *loopStats) timePass() error {
	a := s.heap.bytes()
	t := time.Now()
	if err := s.pass(true); err != nil {
		return err
	}
	ns := since(t)
	s.passNs += ns
	s.passWall = append(s.passWall, ns)
	s.allocs += s.heap.bytes() - a
	s.intervals += int64(s.perPass)
	if s.lat != nil {
		s.passRate = append(s.passRate, trimmedRate(s.passLat, stallTrim))
		s.passLat = s.passLat[:0]
	}
	return nil
}

// measure warms every loop with one untimed pass, then alternates timed
// passes across the loops until the budget is spent, so a traced loop
// and the untraced loop it is compared with see the same host
// conditions.
func measure(budget time.Duration, loops ...*loopStats) error {
	for _, l := range loops {
		if err := l.pass(false); err != nil {
			return err
		}
	}
	runtime.GC()
	for start := time.Now(); time.Since(start) < budget; {
		for _, l := range loops {
			if err := l.timePass(); err != nil {
				return err
			}
		}
	}
	return nil
}

// check compares one scored density with the reference bits.
func (rp *replay) check(i int, got float64, emitted int) {
	rp.out.attempted++
	if emitted != 1 || math.Float64bits(got) != math.Float64bits(rp.ref[i]) {
		rp.out.failed++
		rp.out.fail("interval %d: %d verdicts, density %v, reference %v", i, emitted, got, rp.ref[i])
	}
}

// untraced is the closed loop the end-to-end metrics come from: per
// interval, decode its records, Feed them, FlushAt the boundary, and
// apply the verdict.
func (rp *replay) untraced() (*loopStats, error) {
	ts := rp.ts
	cfg, err := ts.Device().Config()
	if err != nil {
		return nil, err
	}
	var got float64
	emitted := 0
	emit := func(s core.IntervalScore) error {
		got = s.LogDensity
		emitted++
		return nil
	}
	n := len(rp.cap.counts)
	st := newLoopStats(n, nil)
	st.lat = newDurHist(latencyRange)
	st.passLat = make([]float64, 0, n)
	var rt *alarm.Runtime
	st.pass = func(timed bool) error {
		// Each pass replays the capture from its start: rewind the
		// device clock and start a fresh alarm debouncer, as a secure
		// core starting a session would (a Runtime keeps every
		// transition it raises, so one debouncer across passes would
		// grow with the run's length). The last pass's debouncer stays
		// referenced until heap_mb is measured.
		if err := ts.Device().Configure(cfg); err != nil {
			return err
		}
		if rt, err = alarm.NewRuntime(alarm.Config{}); err != nil {
			return err
		}
		r := trace.NewReader(bytes.NewReader(rp.cap.data))
		for i, n := range rp.cap.counts {
			t0 := time.Now()
			k, err := r.ReadBatch(rp.batch[:n])
			if err != nil {
				return fmt.Errorf("interval %d: decode: %w", i, err)
			}
			emitted = 0
			if err := ts.Feed(rp.batch[:k], emit); err != nil {
				return err
			}
			end := int64(i+1) * intervalMicros
			if err := ts.FlushAt(end, emit); err != nil {
				return err
			}
			rt.Observe(got < rp.theta, end)
			if timed {
				st.record(time.Since(t0))
			}
			rp.check(i, got, emitted)
		}
		return nil
	}
	return st, nil
}

// tracedStats sums the traced loop's span durations in nanoseconds.
type tracedStats struct {
	loopStats
	read, snoop, collect, score, verdict float64
	events, nnz, runs, raised            float64
	dev                                  memometer.Stats
	passStages                           []float64 // stage sum of each timed pass, ns
}

func (s *tracedStats) stages() float64 {
	return s.read + s.snoop + s.collect + s.score + s.verdict
}

// traced composes the fused path from its layers — ReadBatch,
// SnoopBatch, Tick + CollectSparse, ScoreSparse, θ + alarm — with a
// span around each call, and holds
// each density to the same reference bits as TraceScorer.
func (rp *replay) traced() (*tracedStats, error) {
	cfg, err := rp.ts.Device().Config()
	if err != nil {
		return nil, err
	}
	eng, err := rp.det.ScoreEngine()
	if err != nil {
		return nil, err
	}
	sc := eng.NewScorer()
	dev := memometer.New()
	var sp heatmap.Sparse
	st := &tracedStats{}
	pass := func(timed bool) error {
		before := st.stages()
		if err := dev.Configure(cfg); err != nil {
			return err
		}
		rt, err := alarm.NewRuntime(alarm.Config{})
		if err != nil {
			return err
		}
		r := trace.NewReader(bytes.NewReader(rp.cap.data))
		for i, n := range rp.cap.counts {
			end := int64(i+1) * intervalMicros
			t0 := time.Now()
			k, err := r.ReadBatch(rp.batch[:n])
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("interval %d: decode: %w", i, err)
			}

			t2 := time.Now()
			used, err := dev.SnoopBatch(rp.batch[:k])
			t3 := time.Now()
			if err != nil {
				return err
			}
			early := used != k || dev.HasPending()

			t4 := time.Now()
			err = dev.Tick(end)
			if err == nil {
				err = dev.CollectSparse(&sp)
			}
			t5 := time.Now()
			if err != nil {
				return err
			}

			t6 := time.Now()
			got, err := sc.ScoreSparse(sp.RunStart, sp.RunLen, sp.Counts)
			t7 := time.Now()
			if err != nil {
				return err
			}

			t8 := time.Now()
			rt.Observe(got < rp.theta, end)
			t9 := time.Now()

			emitted := 1
			if early || dev.HasPending() {
				emitted = 2
			}
			rp.check(i, got, emitted)
			if !timed {
				continue
			}
			st.read += float64(t1.Sub(t0))
			st.snoop += float64(t3.Sub(t2))
			st.collect += float64(t5.Sub(t4))
			st.score += float64(t7.Sub(t6))
			st.verdict += float64(t9.Sub(t8))
			st.events += float64(k)
			st.nnz += float64(sp.NNZ())
			st.runs += float64(len(sp.RunStart))
			if rt.Raised() {
				st.raised++
			}
		}
		if timed {
			st.passStages = append(st.passStages, st.stages()-before)
			ds := dev.Stats()
			st.dev.Snooped += ds.Snooped
			st.dev.Accepted += ds.Accepted
			st.dev.Overruns += ds.Overruns
		}
		return nil
	}
	st.loopStats = *newLoopStats(len(rp.cap.counts), pass)
	return st, nil
}

// reduced projects every interval's reference MHM onto the
// eigenmemories, the input mixCost times ScoreReduced on.
func (rp *replay) reduced() ([][]float64, error) {
	_, lp := rp.det.Dim()
	out := make([][]float64, len(rp.cap.maps))
	for i, m := range rp.cap.maps {
		out[i] = make([]float64, lp)
		if err := rp.det.PCA.ProjectInto(out[i], m.Vector()); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mixCost is the mean ns of one ScoreReduced over the intervals'
// reduced vectors: the mixture alone, timed apart from every span.
func (rp *replay) mixCost(reduced [][]float64) (float64, error) {
	eng, err := rp.det.ScoreEngine()
	if err != nil {
		return 0, err
	}
	sc := eng.NewScorer()
	const passes = 10
	t := time.Now()
	for p := 0; p < passes; p++ {
		for _, w := range reduced {
			if _, err := sc.ScoreReduced(w); err != nil {
				return 0, err
			}
		}
	}
	return since(t) / float64(passes*len(reduced)), nil
}

// trainLayers times the training stages on the workload's own inputs:
// the whole core.Train, then the public pca.Train and gmm.Train on the
// same vectors and their projection.
func trainLayers(in *replayInputs, sz sizes, v map[string]float64) error {
	t := time.Now()
	det, err := trainDetector(in, sz)
	if err != nil {
		return err
	}
	v["core.train_s"] = since(t) / 1e9
	return trainStages(in.train, det, sz.PCA, sz.GMM, v)
}

// trainStages times pca.Train on the training vectors and gmm.Train on
// their projection under det's eigenmemories, with det's model shape.
func trainStages(set []*heatmap.HeatMap, det *core.Detector, po pca.Options, gopts gmm.Options, v map[string]float64) error {
	vecs, err := heatmap.PackVectors(set)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := pca.Train(vecs, po); err != nil {
		return err
	}
	v["pca.train_s"] = since(t) / 1e9
	reduced, err := det.PCA.ProjectAll(vecs)
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := gmm.Train(reduced, gopts); err != nil {
		return err
	}
	v["gmm.train_s"] = since(t) / 1e9
	return nil
}
