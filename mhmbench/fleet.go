package main

import (
	"math"
	"runtime"
	"time"

	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/refresh"
	"github.com/memheatmap/mhm/internal/score"
	"github.com/memheatmap/mhm/internal/stats"
)

// The fleet's base model shape, as fleet.NewSim trains it through
// Workload.TrainDetector(192, 96).
const (
	fleetTrainN, fleetCalibN = 192, 96
)

var (
	fleetPCA = pca.Options{Components: 6}
	fleetGMM = gmm.Options{Components: 3, Restarts: 2}
)

// negEvery subsamples clean-stream densities for the AUC.
const negEvery = 16

// maintainer wraps the refresh loop as the sim's fleet.ModelMaintainer.
// It checks each density bit for bit against the scoring model's engine
// on the generator's vector, collects the AUC classes, and in the
// traced run times every Observe of the loop. Its own checking time is
// kept apart so it can be taken off the sim's wall time.
type maintainer struct {
	loop    *refresh.Loop
	reg     *fleet.Registry
	last    []*fleet.Model
	scorers map[*score.Engine]*score.Scorer
	anomHi  int
	out     *outcome

	calls, cleanN, cleanFlagged int64
	checkNs                     float64
	neg, pos                    []float64

	// The sim scores each interval boundary's batch, then runs the
	// verdict pass that calls Observe; the first Observe of a boundary
	// ends the previous boundary's window. ticks holds each complete
	// window's wall ns, less the wrapper's checks.
	maxIdx    int
	tickStart time.Time
	tickCheck float64
	ticks     []float64

	// trace receives the loop's Observe timings in the traced run (nil
	// when untraced).
	trace *fleetStats
}

var _ fleet.ModelMaintainer = (*maintainer)(nil)

func newMaintainer(sim *fleet.Sim, loop *refresh.Loop, sz sizes, out *outcome) *maintainer {
	return &maintainer{
		loop: loop, reg: sim.Registry(), out: out,
		last:    make([]*fleet.Model, sz.Streams),
		scorers: map[*score.Engine]*score.Scorer{},
		anomHi:  sz.AnomalyStreams,
		maxIdx:  -1,
	}
}

// scores reports whether m's engine scores vec to exactly density.
func (w *maintainer) scores(m *fleet.Model, vec []float64, density float64) bool {
	sc := w.scorers[m.Engine()]
	if sc == nil {
		sc = m.Engine().NewScorer()
		w.scorers[m.Engine()] = sc
	}
	lp, err := sc.Score(vec)
	return err == nil && math.Float64bits(lp) == math.Float64bits(density)
}

// verify holds the density to the model that scored it: the stream's
// live model, or — when a swap boundary fell between two intervals the
// stream submitted in one tick — the model its previous interval used.
func (w *maintainer) verify(stream, idx int, density float64, vec []float64) {
	cur, err := w.reg.Current(stream)
	if err == nil && w.scores(cur, vec, density) {
		w.last[stream] = cur
		return
	}
	if prev := w.last[stream]; prev != nil && prev != cur && w.scores(prev, vec, density) {
		return
	}
	w.out.failed++
	w.out.fail("stream %d interval %d: density %v matches no live model", stream, idx, density)
}

func (w *maintainer) Observe(stream, scoredIdx int, anomalous bool, density float64, vec []float64) {
	c0 := time.Now()
	if scoredIdx > w.maxIdx {
		if w.maxIdx >= 0 {
			w.ticks = append(w.ticks, float64(c0.Sub(w.tickStart))-(w.checkNs-w.tickCheck))
		}
		w.maxIdx, w.tickStart, w.tickCheck = scoredIdx, c0, w.checkNs
	}
	w.calls++
	w.verify(stream, scoredIdx, density, vec)
	if stream < w.anomHi {
		w.pos = append(w.pos, -density)
	} else {
		w.cleanN++
		if anomalous {
			w.cleanFlagged++
		}
		if w.cleanN%negEvery == 0 {
			w.neg = append(w.neg, -density)
		}
	}
	w.checkNs += since(c0)

	if w.trace == nil {
		w.loop.Observe(stream, scoredIdx, anomalous, density, vec)
		return
	}
	before, _, _ := w.loop.Refresher().Counters()
	t := time.Now()
	w.loop.Observe(stream, scoredIdx, anomalous, density, vec)
	d := time.Since(t)
	after, _, _ := w.loop.Refresher().Counters()
	w.trace.maintainNs += float64(d)
	if after != before {
		w.trace.refreshNs = append(w.trace.refreshNs, float64(d))
	} else {
		w.trace.observe.add(d)
	}
}

// fleetStats aggregates a sequence of sims.
type fleetStats struct {
	sims                               int
	submitted, admitted, shed, dropped int64
	swaps, refreshes, fullRebuilds     int64
	wall, runWall                      float64 // ns; wall excludes the wrapper's checks
	setups, ticks, aucs, p99s, p99Dels []float64
	heapMB                             []float64
	allocs                             float64 // heap bytes allocated by the sims
	heap                               allocCounter
	cleanN, cleanFlagged               int64

	// Traced run only: the refresh loop's Observe calls.
	maintainNs float64   // all calls, ns
	observe    *durHist  // calls that did not refresh
	refreshNs  []float64 // calls that refreshed, ns
}

// newFleetStats makes the stats of the untraced or the traced sims.
func newFleetStats(traced bool) *fleetStats {
	st := &fleetStats{heap: newAllocCounter()}
	if traced {
		st.observe = newDurHist(100 * time.Microsecond)
	}
	return st
}

func (s *fleetStats) perSecond() float64 { return float64(s.admitted) / (s.wall / 1e9) }

// simConfig is sim number i of a run.
func simConfig(sz sizes, seed int64, i int) fleet.SimConfig {
	horizon := int64(sz.Intervals) * intervalMicros
	return fleet.SimConfig{
		Streams:       sz.Streams,
		Seed:          seed*1000 + int64(i),
		HorizonMicros: horizon,
		Shards:        sz.Shards,
		Workers:       runtime.NumCPU(),
		Faults: []fleet.Fault{
			{Kind: fleet.FaultAnomaly, StreamLo: 0, StreamHi: sz.AnomalyStreams},
			{Kind: fleet.FaultSwap, SwapInterval: sz.SwapAt},
		},
	}
}

// runSim sets up, runs and checks sim number i, folding it into st;
// traced times the refresh loop's Observe calls. It returns the live
// heap in MB measured while the sim was still referenced.
func runSim(o runOptions, i int, st *fleetStats, traced bool, out *outcome) (live float64, err error) {
	sz := o.size
	t := time.Now()
	sim, err := fleet.NewSim(simConfig(sz, o.seed, i))
	if err != nil {
		return 0, err
	}
	// The refresher keeps its defaults (serial training engines), as
	// mhmfleet -refresh runs it.
	loop, err := refresh.NewLoop(sim.Detector(), sim.Registry(), refresh.LoopConfig{Every: sz.RefreshEvery})
	if err != nil {
		return 0, err
	}
	st.setups = append(st.setups, since(t)/1e9)

	w := newMaintainer(sim, loop, sz, out)
	if traced {
		w.trace = st
	}
	sim.SetMaintainer(w)
	allocs := st.heap.bytes()
	t = time.Now()
	res, err := sim.Run()
	if err != nil {
		return 0, err
	}
	runNs := since(t)
	st.allocs += st.heap.bytes() - allocs
	auc, err := stats.AUC(w.neg, w.pos)
	if err != nil {
		return 0, err
	}
	st.aucs = append(st.aucs, auc)
	// The live heap with the sim, its registry and the refresh loop
	// still referenced; runFleet takes off the live heap once runSim
	// has returned and released them. The wrapper's own checking state
	// goes first: its scorer cache keeps every engine it has seen.
	st.ticks = append(st.ticks, w.ticks...)
	w.neg, w.pos, w.ticks, w.scorers, w.last = nil, nil, nil, nil, nil
	live = liveHeapMB()
	runtime.KeepAlive(sim)
	ls := loop.Stats()
	wall := runNs - w.checkNs
	st.sims++
	st.wall += wall
	st.runWall += runNs
	st.submitted += res.Submitted
	st.admitted += res.Admitted
	st.shed += res.Shed
	st.dropped += res.DroppedIntervals
	st.swaps += res.SwapsScheduled + int64(ls.SwapsScheduled)
	st.refreshes += int64(ls.Refreshes)
	st.fullRebuilds += int64(ls.FullRebuilds)
	st.p99s = append(st.p99s, res.P99IntervalMicros)
	st.p99Dels = append(st.p99Dels, res.P99DeliveryMicros)
	st.cleanN += w.cleanN
	st.cleanFlagged += w.cleanFlagged

	out.attempted += res.Submitted
	if res.DroppedIntervals != 0 {
		out.failed += res.DroppedIntervals
		out.fail("sim %d dropped %d intervals", i, res.DroppedIntervals)
	}
	if missing := res.Admitted - res.DroppedIntervals - w.calls; missing != 0 {
		out.failed += abs64(missing)
		out.fail("sim %d: %d admitted intervals, %d reached the maintainer", i, res.Admitted, w.calls)
	}
	if err := loop.Err(); err != nil {
		out.fail("sim %d refresh loop: %v", i, err)
	}
	if ls.Refreshes == 0 {
		out.fail("sim %d ran no refresh", i)
	}
	return live, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// runFleet measures the fleet-refresh workload.
func runFleet(o runOptions) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, traffic: map[string]float64{}}
	sz := o.size
	// The traced run alternates untraced and traced sims, so the two
	// see the same host conditions; sim i is seeded from --seed and i.
	plain := newFleetStats(false)
	var tr *fleetStats
	if o.traced {
		tr = newFleetStats(true)
	}
	short := func() bool { return plain.sims < sz.MinSims || (tr != nil && tr.sims < sz.MinSims) }
	for i, start := 0, time.Now(); short() || time.Since(start) < o.budget; i++ {
		st, traced := plain, false
		if tr != nil && i%2 == 1 {
			st, traced = tr, true
		}
		live, err := runSim(o, i, st, traced, out)
		if err != nil {
			return nil, err
		}
		// The program's heap: what the sim's objects retained.
		st.heapMB = append(st.heapMB, live-liveHeapMB())
	}
	v := out.values
	v["intervals_per_s"] = plain.perSecond()
	v["interval_p90_us"] = quantile(plain.ticks, 0.90) / 1e3
	v["bench.interval_p50_us"] = quantile(plain.ticks, 0.50) / 1e3
	v["setup_s"] = median(plain.setups)
	v["heap_mb"] = median(plain.heapMB)
	v["auc"] = median(plain.aucs)

	t := out.traffic
	t["sims"] = float64(plain.sims)
	t["streams"] = float64(sz.Streams)
	t["intervals_per_sim"] = float64(plain.admitted) / float64(plain.sims)
	t["anomaly_stream_share"] = float64(sz.AnomalyStreams) / float64(sz.Streams)
	t["flag_rate_clean"] = float64(plain.cleanFlagged) / float64(plain.cleanN)
	t["refreshes_per_sim"] = float64(plain.refreshes) / float64(plain.sims)
	if !o.traced {
		return out, nil
	}

	sims := float64(tr.sims)
	v["refresh.observe_ns"] = tr.observe.quantile(0.50)
	v["refresh.refresh_ms"] = quantile(tr.refreshNs, 0.50) / 1e6
	v["refresh.refreshes"] = float64(tr.refreshes) / sims
	v["refresh.full_rebuild_frac"] = float64(tr.fullRebuilds) / math.Max(1, float64(tr.refreshes))
	v["refresh.share"] = tr.maintainNs / tr.runWall
	v["fleet.run_s"] = tr.runWall / sims / 1e9
	v["fleet.admitted"] = float64(tr.admitted) / sims
	v["fleet.shed"] = float64(tr.shed)
	v["fleet.shed_frac"] = float64(tr.shed) / float64(tr.submitted)
	v["fleet.swaps"] = float64(tr.swaps) / sims
	v["fleet.dropped_intervals"] = float64(tr.dropped)
	v["fleet.sim_p99_interval_us"] = median(tr.p99s)
	v["fleet.sim_p99_alarm_delivery_us"] = median(tr.p99Dels)
	v["core.fp_rate"] = float64(tr.cleanFlagged) / float64(tr.cleanN)
	v["bench.trace_overhead_frac"] = 1 - tr.perSecond()/plain.perSecond()
	v["bench.alloc_bytes_per_interval"] = tr.allocs / float64(tr.admitted)

	wl, err := fleet.NewWorkload(o.seed, fleet.SimRegion)
	if err != nil {
		return nil, err
	}
	v["fleet.gen_ns"] = genCost(wl, sz.Streams)
	if err := fleetTrainLayers(wl, v); err != nil {
		return nil, err
	}
	for _, name := range []string{"trace.read_ns", "trace.events", "trace.bytes",
		"memometer.snoop_ns", "memometer.accepted_frac", "memometer.overruns",
		"memometer.collect_ns", "heatmap.nnz", "heatmap.runs", "heatmap.occupancy",
		"score.sparse_ns", "score.mix_ns", "core.verdict_ns", "alarm.raised_frac",
		"bench.unattributed_frac"} {
		v[name] = 0
	}
	return out, nil
}

// genCost is the mean ns of one Workload.VectorInto, the input
// generation the sim runs in-process (timed apart from the sim).
func genCost(wl *fleet.Workload, streams int) float64 {
	const calls = 1 << 16
	dst := make([]float64, fleet.SimRegion.Cells())
	t := time.Now()
	for i := 0; i < calls; i++ {
		wl.VectorInto(dst, i%streams, i/streams, false)
	}
	return since(t) / calls
}

// fleetTrainLayers times the sim's base-model training: the whole
// Workload.TrainDetector, then pca.Train and gmm.Train on the same
// maps with the same model shape.
func fleetTrainLayers(wl *fleet.Workload, v map[string]float64) error {
	t := time.Now()
	det, err := wl.TrainDetector(fleetTrainN, fleetCalibN)
	if err != nil {
		return err
	}
	v["core.train_s"] = since(t) / 1e9
	set := make([]*heatmap.HeatMap, fleetTrainN)
	for i := range set {
		if set[i], err = wl.HeatMap(i%64, i, false); err != nil {
			return err
		}
	}
	return trainStages(set, det, fleetPCA, fleetGMM, v)
}
