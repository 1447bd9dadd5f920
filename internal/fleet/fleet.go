// Package fleet is the fleet-scale detection control plane: it serves
// the paper's per-device memory-heat-map detection for up to 100k+
// independent device streams. The Controller is the repository's one
// live multi-stream runtime: stream→shard affinity over a pool of
// scoring workers, plus the cluster-shaped concerns of a serving
// system — a per-stream model registry with copy-on-write hot swap
// (registry.go), admission control with per-stream-fair overload
// shedding (admission.go), consistent routing over a resizable shard
// set (router.go), and obs-driven shard autoscaling (autoscale.go) —
// plus the deterministic simulator (sim.go) that makes every one of
// those decisions bit-reproducible and assertable.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/score"
)

// ErrConfig wraps invalid fleet configuration or inputs.
var ErrConfig = errors.New("fleet: invalid configuration")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("fleet: controller closed")

// Config tunes the live controller.
type Config struct {
	// Shards is the initial worker count (default GOMAXPROCS, capped at
	// the stream count).
	Shards int
	// QueueDepth is the per-shard queue capacity (default 128). Negative
	// values are rejected: a fleet must state its capacity, not
	// silently inherit one.
	QueueDepth int
	// MaxPerStream caps one stream's in-flight intervals (default 4) —
	// the per-stream fairness share under load.
	MaxPerStream int
	// HighWaterFrac is the queue occupancy fraction above which only
	// streams with nothing in flight are admitted (default 0.75).
	HighWaterFrac float64
	// Quantile selects the calibrated threshold (default 0.01 = θ1).
	Quantile float64
	// Alarm configures per-stream debouncing (zero value = defaults).
	Alarm alarm.Config
	// Metrics, when non-nil, installs the fleet metric set (see
	// fleetMetrics; names are frozen by a golden schema test).
	Metrics *obs.Registry
	// Scale, when non-nil, enables PollScale-driven autoscaling.
	Scale *ScaleConfig
}

func (c *Config) fill(streams int) error {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: %d shards: %w", c.Shards, ErrConfig)
	}
	if c.Shards > streams {
		c.Shards = streams
	}
	return fillAdmission(&c.QueueDepth, &c.MaxPerStream, &c.HighWaterFrac, &c.Quantile)
}

// fleetMetrics is the controller's frozen metric set; the golden schema
// test pins these names so dashboards cannot break silently. All
// metrics are fleet-aggregate — per-shard names would churn under
// autoscaling.
type fleetMetrics struct {
	submitted *obs.Counter // fleet.submitted
	admitted  *obs.Counter // fleet.admitted
	shed      *obs.Counter // fleet.shed
	anomalous *obs.Counter // fleet.anomalous
	swaps     *obs.Counter // fleet.swaps
	resizes   *obs.Counter // fleet.resizes
	raised    *obs.Counter // fleet.alarms_raised
	cleared   *obs.Counter // fleet.alarms_cleared

	shards    *obs.Gauge // fleet.shards
	streams   *obs.Gauge // fleet.streams
	inflight  *obs.Gauge // fleet.inflight
	queueFrac *obs.Gauge // fleet.queue_frac_max
	p99       *obs.Gauge // fleet.p99_interval_micros

	interval *obs.Histogram // fleet.interval_micros
	delivery *obs.Histogram // fleet.alarm_delivery_micros
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		submitted: reg.Counter("fleet.submitted"),
		admitted:  reg.Counter("fleet.admitted"),
		shed:      reg.Counter("fleet.shed"),
		anomalous: reg.Counter("fleet.anomalous"),
		swaps:     reg.Counter("fleet.swaps"),
		resizes:   reg.Counter("fleet.resizes"),
		raised:    reg.Counter("fleet.alarms_raised"),
		cleared:   reg.Counter("fleet.alarms_cleared"),
		shards:    reg.Gauge("fleet.shards"),
		streams:   reg.Gauge("fleet.streams"),
		inflight:  reg.Gauge("fleet.inflight"),
		queueFrac: reg.Gauge("fleet.queue_frac_max"),
		p99:       reg.Gauge("fleet.p99_interval_micros"),
		interval:  reg.Histogram("fleet.interval_micros", obs.LatencyBuckets),
		delivery:  reg.Histogram("fleet.alarm_delivery_micros", obs.LatencyBuckets),
	}
}

// Record is one analyzed interval of one stream.
type Record struct {
	Index      int
	Start, End int64
	LogDensity float64
	Anomalous  bool
	// ModelVersion is the registry model that scored the interval —
	// hot swaps are visible per record.
	ModelVersion int
	// Event is the alarm transition this interval triggered, if any.
	Event *alarm.Event
}

// item is one queued interval.
type item struct {
	stream int
	m      *heatmap.HeatMap
}

// streamState is one monitored stream. Stream→shard affinity means
// exactly one worker assigns indices and appends records; the mutex
// only fences those writes against read-side Records/Alarms.
type streamState struct {
	inflight atomic.Int32

	mu      sync.Mutex
	index   int
	records []Record
	rt      *alarm.Runtime
}

// worker is one shard worker's private state. Because hot swap means
// different streams on one shard may score under different engines, the
// worker keeps a scorer per engine it has seen (engines are few — the
// live model generations — and immutable).
type worker struct {
	scorers map[*score.Engine]*score.Scorer
	vbuf    []float64
}

func (w *worker) scorerFor(eng *score.Engine) *score.Scorer {
	sc := w.scorers[eng]
	if sc == nil {
		sc = eng.NewScorer()
		w.scorers[eng] = sc
	}
	return sc
}

// Controller is the live fleet control plane: a resizable pool of shard
// workers draining bounded FIFO queues, with per-stream admission
// control and the copy-on-write model registry deciding which engine
// scores each interval.
type Controller struct {
	cfg       Config
	region    heatmap.Def
	cells     int
	reg       *Registry
	streams   []*streamState
	met       fleetMetrics
	highWater int

	auto *Autoscaler // nil without Config.Scale

	mu      sync.RWMutex // fences Submit/readers against Resize/Close
	workers []*worker
	chans   []chan item
	closed  bool
	wg      sync.WaitGroup
}

// New builds the controller for a fixed stream population over a
// trained detector (model version 1 in the registry).
func New(det *core.Detector, streams int, cfg Config) (*Controller, error) {
	if det == nil {
		return nil, fmt.Errorf("fleet: nil detector: %w", ErrConfig)
	}
	if streams <= 0 {
		return nil, fmt.Errorf("fleet: %d streams: %w", streams, ErrConfig)
	}
	if err := cfg.fill(streams); err != nil {
		return nil, err
	}
	// Autoscaling decides from the obs gauges; with no registry they read
	// 0 and every poll looks idle. Install a private registry rather than
	// let PollScale silently shrink the fleet to MinShards.
	if cfg.Scale != nil && cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	base, err := NewModel(det, cfg.Quantile, 1)
	if err != nil {
		return nil, err
	}
	l, _ := base.eng.Dim()
	if l != det.Region.Cells() {
		return nil, fmt.Errorf("fleet: engine dimension %d, region cells %d: %w",
			l, det.Region.Cells(), ErrConfig)
	}
	reg, err := NewRegistry(streams, base)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		region:    det.Region,
		cells:     l,
		reg:       reg,
		streams:   make([]*streamState, streams),
		met:       newFleetMetrics(cfg.Metrics),
		highWater: highWaterMark(cfg.QueueDepth, cfg.HighWaterFrac),
	}
	for i := range c.streams {
		rt, err := alarm.NewRuntime(cfg.Alarm)
		if err != nil {
			return nil, err
		}
		c.streams[i] = &streamState{rt: rt}
	}
	if cfg.Scale != nil {
		if c.auto, err = NewAutoscaler(*cfg.Scale, cfg.Metrics); err != nil {
			return nil, err
		}
	}
	c.met.streams.Set(float64(streams))
	c.startWorkers(cfg.Shards)
	return c, nil
}

// startWorkers builds a fresh worker pool of the given size. Callers
// must hold the write lock (or be the constructor).
func (c *Controller) startWorkers(shards int) {
	c.workers = make([]*worker, shards)
	c.chans = make([]chan item, shards)
	for i := range c.workers {
		c.workers[i] = &worker{
			scorers: make(map[*score.Engine]*score.Scorer),
			vbuf:    make([]float64, c.cells),
		}
		c.chans[i] = make(chan item, c.cfg.QueueDepth)
		c.wg.Add(1)
		go c.run(i)
	}
	c.met.shards.Set(float64(shards))
}

// Streams and Shards report the current topology.
func (c *Controller) Streams() int { return len(c.streams) }
func (c *Controller) Shards() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workers)
}

// Registry exposes the per-stream model registry for hot swaps.
func (c *Controller) Registry() *Registry { return c.reg }

// SwapAt schedules a hot model swap at an exact per-stream interval
// boundary (see Registry.SwapAt) and counts it.
func (c *Controller) SwapAt(stream, at int, m *Model) error {
	if err := c.reg.SwapAt(stream, at, m); err != nil {
		return err
	}
	c.met.swaps.Inc()
	return nil
}

// Submit offers one completed MHM of a stream. It never blocks: under
// overload the submission is shed (admitted=false) according to the
// per-stream fairness policy, and the monitor keeps its interval cadence. The error is non-nil only for
// invalid submissions or a closed controller.
func (c *Controller) Submit(stream int, m *heatmap.HeatMap) (admitted bool, err error) {
	if stream < 0 || stream >= len(c.streams) {
		return false, fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(c.streams), ErrConfig)
	}
	if m.Def != c.region {
		return false, fmt.Errorf("fleet: stream %d: %w", stream, core.ErrRegionMismatch)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return false, ErrClosed
	}
	c.met.submitted.Inc()
	st := c.streams[stream]
	shard := RouteStream(stream, len(c.chans))
	ch := c.chans[shard]
	reason := admitVerdict(len(ch), c.cfg.QueueDepth, int(st.inflight.Load()),
		c.cfg.MaxPerStream, c.highWater)
	if reason != "" {
		c.met.shed.Inc()
		return false, nil
	}
	st.inflight.Add(1)
	c.met.inflight.Add(1)
	select {
	case ch <- item{stream: stream, m: m}:
		c.met.admitted.Inc()
		return true, nil
	default:
		// The queue filled between the verdict and the send; shed.
		st.inflight.Add(-1)
		c.met.inflight.Add(-1)
		c.met.shed.Inc()
		return false, nil
	}
}

// run is one shard worker: it drains the shard's FIFO queue, resolving
// each interval's model through the registry (hot-swap boundary), then
// scoring and recording in submission order.
func (c *Controller) run(shard int) {
	defer c.wg.Done()
	w := c.workers[shard]
	for it := range c.chans[shard] {
		start := time.Now()
		st := c.streams[it.stream]

		st.mu.Lock()
		idx := st.index
		st.index++
		st.mu.Unlock()

		mdl := c.reg.ModelFor(it.stream, idx)
		it.m.VectorInto(w.vbuf)
		lp, err := w.scorerFor(mdl.eng).Score(w.vbuf)
		if err != nil {
			// Unreachable: Submit pinned the region, so the vector length
			// always matches the engine.
			panic("fleet: score: " + err.Error())
		}
		anomalous := lp < mdl.theta
		rec := Record{
			Index:        idx,
			Start:        it.m.Start,
			End:          it.m.End,
			LogDensity:   lp,
			Anomalous:    anomalous,
			ModelVersion: mdl.version,
		}

		st.mu.Lock()
		rec.Event = st.rt.Observe(anomalous, it.m.End)
		st.records = append(st.records, rec)
		st.mu.Unlock()

		st.inflight.Add(-1)
		c.met.inflight.Add(-1)
		if anomalous {
			c.met.anomalous.Inc()
		}
		micros := float64(time.Since(start).Nanoseconds()) / 1e3
		c.met.interval.Observe(micros)
		if rec.Event != nil {
			if rec.Event.Raised {
				c.met.raised.Inc()
			} else {
				c.met.cleared.Inc()
			}
			c.met.delivery.Observe(micros)
		}
	}
}

// Resize re-shapes the worker pool to the given shard count. It is a
// drain barrier: submissions pause, every queued interval completes
// under the old topology, then workers restart with the new one — so a
// stream's records stay in submission order across the move, and only
// the streams whose jump-hash owner changed are re-homed. Returns how
// many streams moved.
func (c *Controller) Resize(shards int) (moved int, err error) {
	if shards <= 0 {
		return 0, fmt.Errorf("fleet: resize to %d shards: %w", shards, ErrConfig)
	}
	if shards > len(c.streams) {
		shards = len(c.streams)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	old := len(c.workers)
	if shards == old {
		return 0, nil
	}
	for _, ch := range c.chans {
		close(ch)
	}
	c.wg.Wait()
	moved = MovedStreams(len(c.streams), old, shards)
	c.startWorkers(shards)
	c.met.resizes.Inc()
	return moved, nil
}

// PollScale publishes the queue-occupancy and latency gauges and, when
// autoscaling is configured, applies the autoscaler's decision. now is
// the caller's clock in microseconds (wall or virtual — the decision
// only compares differences against the cooldown). It returns the new
// shard count and how many streams moved (0 when no resize fired).
func (c *Controller) PollScale(now int64) (shards, moved int, err error) {
	c.mu.RLock()
	maxFrac := 0.0
	for _, ch := range c.chans {
		if f := float64(len(ch)) / float64(c.cfg.QueueDepth); f > maxFrac {
			maxFrac = f
		}
	}
	cur := len(c.workers)
	c.mu.RUnlock()
	c.met.queueFrac.Set(maxFrac)
	c.met.p99.Set(c.met.interval.Snapshot().Quantile(0.99))
	if c.auto == nil {
		return cur, 0, nil
	}
	target, _ := c.auto.Decide(now, cur)
	if target == cur {
		return cur, 0, nil
	}
	moved, err = c.Resize(target)
	if err != nil {
		return cur, 0, err
	}
	return target, moved, nil
}

// Records returns the analyzed intervals of one stream so far, in
// submission order.
func (c *Controller) Records(stream int) ([]Record, error) {
	if stream < 0 || stream >= len(c.streams) {
		return nil, fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(c.streams), ErrConfig)
	}
	st := c.streams[stream]
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, len(st.records))
	copy(out, st.records)
	return out, nil
}

// Alarms returns one stream's alarm transitions so far.
func (c *Controller) Alarms(stream int) ([]alarm.Event, error) {
	if stream < 0 || stream >= len(c.streams) {
		return nil, fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(c.streams), ErrConfig)
	}
	st := c.streams[stream]
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rt.Events(), nil
}

// Close drains the queues, stops the workers, and waits for them.
// Further Submit calls fail; Records and Alarms remain readable.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, ch := range c.chans {
		close(ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}
