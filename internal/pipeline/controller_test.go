package pipeline

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/heatmap"
)

// streamSeries builds each stream's interval sequence: mostly normal
// maps with a burst of anomalies, timestamped so ordering is checkable.
func streamSeries(rng *rand.Rand, stream, n int) []*heatmap.HeatMap {
	maps := make([]*heatmap.HeatMap, n)
	for i := 0; i < n; i++ {
		var m *heatmap.HeatMap
		if i >= n/2 && i < n/2+10 {
			m = anomalyMap(rng)
		} else {
			m = patternMap(rng, stream+i)
		}
		m.Start = int64(i) * 1000
		m.End = m.Start + 1000
		maps[i] = m
	}
	return maps
}

// TestControllerMatchesSerialPipeline is the stress gate (run under
// -race in CI): several concurrent streams, hundreds of intervals each,
// scored by the live fleet controller — every stream's records must
// come back in submission order with scores, verdicts and alarm
// transitions bit-identical to a serial Pipeline fed the same intervals.
func TestControllerMatchesSerialPipeline(t *testing.T) {
	det, _ := trainDetector(t, false)

	const (
		streams   = 6
		intervals = 250
	)
	series := make([][]*heatmap.HeatMap, streams)
	for i := range series {
		series[i] = streamSeries(rand.New(rand.NewSource(int64(100+i))), i, intervals)
	}

	// Serial references, one fresh pipeline per stream.
	want := make([][]IntervalRecord, streams)
	for i, maps := range series {
		p, err := New(det, Config{})
		if err != nil {
			t.Fatal(err)
		}
		feed(t, p, maps)
		want[i] = p.Records()
	}

	c, err := fleet.New(det, streams, fleet.Config{Shards: 3, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.Streams() != streams || c.Shards() != 3 {
		t.Fatalf("topology (%d, %d)", c.Streams(), c.Shards())
	}
	// The controller sheds rather than blocks; the producers retry a shed
	// interval until it is admitted, so no interval is lost and each
	// stream's submission order is kept.
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, m := range series[i] {
				for {
					ok, err := c.Submit(i, m)
					if err != nil {
						errs[i] = err
						return
					}
					if ok {
						break
					}
					runtime.Gosched()
				}
			}
		}(i)
	}
	wg.Wait()
	c.Close()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}

	for i := 0; i < streams; i++ {
		got, err := c.Records(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != intervals {
			t.Fatalf("stream %d: %d records, want %d", i, len(got), intervals)
		}
		for j, rec := range got {
			if rec.Index != j {
				t.Fatalf("stream %d: record %d has index %d — order broken", i, j, rec.Index)
			}
			ref := want[i][j]
			if rec.Start != ref.Start || rec.End != ref.End {
				t.Fatalf("stream %d interval %d: bounds (%d,%d), want (%d,%d)",
					i, j, rec.Start, rec.End, ref.Start, ref.End)
			}
			if math.Float64bits(rec.LogDensity) != math.Float64bits(ref.LogDensity) {
				t.Fatalf("stream %d interval %d: controller density %v, serial %v",
					i, j, rec.LogDensity, ref.LogDensity)
			}
			if rec.Anomalous != ref.Anomalous {
				t.Fatalf("stream %d interval %d: verdict %v, serial %v",
					i, j, rec.Anomalous, ref.Anomalous)
			}
		}
		// The per-stream alarm runtimes see the same verdict sequence, so
		// the alarm transitions must line up too.
		alarms, err := c.Alarms(i)
		if err != nil {
			t.Fatal(err)
		}
		var refAlarms []int
		for _, r := range want[i] {
			if r.Event != nil {
				refAlarms = append(refAlarms, r.Index)
			}
		}
		var gotAlarms []int
		for _, r := range got {
			if r.Event != nil {
				gotAlarms = append(gotAlarms, r.Index)
			}
		}
		if !reflect.DeepEqual(gotAlarms, refAlarms) {
			t.Fatalf("stream %d: alarm transitions at %v, serial %v", i, gotAlarms, refAlarms)
		}
		if len(alarms) == 0 && len(refAlarms) > 0 {
			t.Fatalf("stream %d: alarm runtime recorded no events", i)
		}
	}
}
