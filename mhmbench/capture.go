package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/securecore"
	"github.com/memheatmap/mhm/internal/trace"
)

// intervalMicros is the paper's 10 ms monitoring interval.
const intervalMicros = 10_000

// imageSeed fixes the synthetic kernel image: the paper monitors one
// kernel, so only the noise, attack and fleet seeds follow --seed.
const imageSeed = 1

// paperAttacks are the three §5.3 scenarios, one capture segment each.
var paperAttacks = []string{"app-addition", "shellcode", "rootkit-lkm"}

// sizes fixes the data volumes of every workload. fullSize is what the
// benchmark runs; tests use a tiny size through the same code.
type sizes struct {
	// Replay training: TrainRuns clean captures of TrainMicros plus one
	// calibration capture of CalibMicros (paper: 10 x 3 s + 3 s).
	TrainRuns                int
	TrainMicros, CalibMicros int64
	PCA                      pca.Options
	GMM                      gmm.Options
	// Each capture segment is LeadMicros of clean lead-in followed by
	// AttackMicros under attack.
	LeadMicros, AttackMicros int64
	// ReplaySetups is how many times a run repeats core.Train +
	// NewTraceScorer for the setup_s median.
	ReplaySetups int

	// Fleet: each sim runs Streams streams for Intervals intervals;
	// AnomalyStreams of them carry the anomaly fault, every stream
	// hot-swaps at SwapAt, and the refresh loop refreshes after every
	// RefreshEvery clean intervals.
	Streams, Intervals, Shards int
	AnomalyStreams, SwapAt     int
	RefreshEvery               int
	// MinSims is the fewest sims a run makes, whatever the budget.
	MinSims int
}

func fullSize() sizes {
	return sizes{
		TrainRuns:    10,
		TrainMicros:  3_000_000,
		CalibMicros:  3_000_000,
		PCA:          pca.Options{VarianceFraction: 0.9999, Parallel: true},
		GMM:          gmm.Options{Components: 5, Restarts: 10, Parallel: true},
		LeadMicros:   1_500_000,
		AttackMicros: 1_500_000,
		ReplaySetups: 5,

		Streams:        500,
		Intervals:      100,
		Shards:         4,
		AnomalyStreams: 5,
		SwapAt:         50,
		RefreshEvery:   1024,
		MinSims:        5,
	}
}

// smokeSize keeps every code path at a fraction of the cost.
func smokeSize() sizes {
	return sizes{
		TrainRuns:    3,
		TrainMicros:  400_000,
		CalibMicros:  400_000,
		PCA:          pca.Options{VarianceFraction: 0.9999, MaxComponents: 8, Parallel: true},
		GMM:          gmm.Options{Components: 3, Restarts: 2, Parallel: true},
		LeadMicros:   100_000,
		AttackMicros: 100_000,
		ReplaySetups: 1,

		Streams:        60,
		Intervals:      40,
		Shards:         2,
		AnomalyStreams: 2,
		SwapAt:         20,
		RefreshEvery:   256,
		MinSims:        2,
	}
}

// capture is one replay workload's input: an encoded bus trace on one
// continuous clock, the per-interval record counts that split it, and
// the generator's own dense MHM for every interval (the reference the
// scored densities are checked against).
type capture struct {
	region heatmap.Def
	data   []byte
	counts []int
	maps   []*heatmap.HeatMap
	// attack marks intervals recorded under attack (paper-replay) or
	// under the scan (scan-dense: all of them).
	attack []bool
}

// events returns the total record count.
func (c *capture) events() int {
	n := 0
	for _, k := range c.counts {
		n += k
	}
	return n
}

// replayInputs is everything a replay workload generates from its seed.
type replayInputs struct {
	train, calib []*heatmap.HeatMap
	cap          *capture
}

// sessionConfig is the securecore set-up for one noise seed.
func sessionConfig(img *kernelmap.Image, noiseSeed int64) securecore.SessionConfig {
	return securecore.SessionConfig{
		Region:         heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 2048},
		IntervalMicros: intervalMicros,
		NoiseSeed:      noiseSeed,
	}
}

// genReplay builds the training set, the calibration set and the
// capture for a replay workload. All noise seeds derive from seed.
func genReplay(workload string, seed int64, sz sizes) (*replayInputs, error) {
	img, err := kernelmap.NewImage(imageSeed)
	if err != nil {
		return nil, err
	}
	base := seed * 1000
	in := &replayInputs{}
	for r := 0; r < sz.TrainRuns; r++ {
		s, err := attack.BuildScenarioSession(img, nil, sessionConfig(img, base+int64(r)))
		if err != nil {
			return nil, err
		}
		maps, err := s.Run(sz.TrainMicros)
		if err != nil {
			return nil, fmt.Errorf("training run %d: %w", r, err)
		}
		in.train = append(in.train, maps...)
	}
	s, err := attack.BuildScenarioSession(img, nil, sessionConfig(img, base+100))
	if err != nil {
		return nil, err
	}
	if in.calib, err = s.Run(sz.CalibMicros); err != nil {
		return nil, fmt.Errorf("calibration run: %w", err)
	}
	pc, err := paperCapture(img, base+200, sz)
	if err != nil {
		return nil, err
	}
	switch workload {
	case "paper-replay":
		in.cap = pc
	case "scan-dense":
		if in.cap, err = scanCapture(pc, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no capture for workload %q", workload)
	}
	return in, nil
}

// paperCapture records one segment per paper attack — a clean lead-in,
// then the attack — and stitches the segments onto one clock.
func paperCapture(img *kernelmap.Image, noiseBase int64, sz sizes) (*capture, error) {
	segMicros := sz.LeadMicros + sz.AttackMicros
	segIntervals := int(segMicros / intervalMicros)
	leadIntervals := int(sz.LeadMicros / intervalMicros)
	region := sessionConfig(img, 0).Region
	var all []trace.Access
	c := &capture{region: region}
	for k, name := range paperAttacks {
		entry, err := attack.Find(name)
		if err != nil {
			return nil, err
		}
		s, err := attack.BuildScenarioSession(img, entry.Build(sz.LeadMicros), sessionConfig(img, noiseBase+int64(k)))
		if err != nil {
			return nil, err
		}
		var raw bytes.Buffer
		w := trace.NewWriter(&raw)
		s.Monitor.SetTraceWriter(w)
		maps, err := s.Run(segMicros)
		if err != nil {
			return nil, fmt.Errorf("%s segment: %w", name, err)
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		if len(maps) != segIntervals {
			return nil, fmt.Errorf("%s segment: %d MHMs, want %d", name, len(maps), segIntervals)
		}
		evs, err := trace.NewReader(&raw).ReadAll()
		if err != nil {
			return nil, err
		}
		offset := int64(k) * segMicros
		for _, a := range evs {
			// The session's last MHM closes at the horizon; later events
			// belong to no collected interval.
			if a.Time >= segMicros {
				continue
			}
			a.Time += offset
			all = append(all, a)
		}
		for i, m := range maps {
			c.maps = append(c.maps, m)
			c.attack = append(c.attack, i >= leadIntervals)
		}
	}
	return c, c.encode(all)
}

// scanCapture keeps the paper capture's event times and burst counts
// and redraws every address uniformly over the monitored region. Its
// reference MHMs are recorded straight into heat maps, independently of
// the Memometer model.
func scanCapture(pc *capture, seed int64) (*capture, error) {
	evs, err := trace.NewReader(bytes.NewReader(pc.data)).ReadAll()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca7))
	region := pc.region
	c := &capture{region: region}
	for i := range pc.counts {
		m, err := heatmap.New(region)
		if err != nil {
			return nil, err
		}
		m.Start, m.End = int64(i)*intervalMicros, int64(i+1)*intervalMicros
		c.maps = append(c.maps, m)
		c.attack = append(c.attack, true)
	}
	for i := range evs {
		a := &evs[i]
		a.Addr = region.AddrBase + uint64(rng.Int63n(int64(region.Size)))
		c.maps[a.Time/intervalMicros].Record(a.Addr, a.Count)
	}
	return c, c.encode(evs)
}

// encode serializes the stitched events and splits them per interval.
func (c *capture) encode(evs []trace.Access) error {
	c.counts = make([]int, len(c.maps))
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, a := range evs {
		iv := a.Time / intervalMicros
		if iv < 0 || iv >= int64(len(c.counts)) {
			return fmt.Errorf("event at %dµs outside the %d-interval capture", a.Time, len(c.counts))
		}
		c.counts[iv]++
		if err := w.Write(a); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	c.data = bytes.Clone(buf.Bytes())
	return nil
}

// trainDetector is the replay set-up step: train on the generated maps
// with the workload's options.
func trainDetector(in *replayInputs, sz sizes) (*core.Detector, error) {
	return core.Train(in.train, in.calib, core.Config{
		PCA:       sz.PCA,
		GMM:       sz.GMM,
		Quantiles: []float64{0.005, 0.01},
	})
}
