package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The same seed must give the same texts and the same op schedule; a
// different seed must give a different fleet.
func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a, b := s.initialFleet(7), s.initialFleet(7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("initial fleet differs between two draws with seed 7")
			}
			if reflect.DeepEqual(a, s.initialFleet(8)) {
				t.Fatal("seeds 7 and 8 give the same fleet")
			}
			if !reflect.DeepEqual(s.sample(a, 7), s.sample(b, 7)) {
				t.Fatal("sample differs between two draws with seed 7")
			}
			if !reflect.DeepEqual(s.opSchedule(7, 3), s.opSchedule(7, 3)) {
				t.Fatal("op schedule differs between two draws with seed 7")
			}
		})
	}
}

// Fresh arrivals must be new tenants with shapes no resident tenant has.
func TestArrivalsAreFreshShapes(t *testing.T) {
	for _, name := range []string{"churn", "edge"} {
		s := mustSpec(t, name)
		resident := map[string]bool{}
		ids := map[string]bool{}
		for _, r := range s.initialFleet(3) {
			resident[r.Text] = true
			ids[r.ID] = true
		}
		sc := s.opSchedule(3, 2)
		if len(sc.arrivals) == 0 {
			t.Fatalf("%s: no arrivals scheduled", name)
		}
		for _, r := range sc.arrivals {
			if resident[r.Text] || ids[r.ID] {
				t.Fatalf("%s: arrival %s repeats a resident tenant or shape", name, r.ID)
			}
			resident[r.Text] = true
		}
	}
}

// twins must intern exactly its 100 shapes, and distinct one shape per
// tenant.
func TestShapeCounts(t *testing.T) {
	for _, c := range []struct {
		name   string
		shapes int
	}{{"twins", 100}, {"distinct", mustSpec(t, "distinct").tenants}} {
		s := mustSpec(t, c.name)
		g := s.runtime(1)
		for _, r := range s.initialFleet(1) {
			if err := g.Register(r.ID, r.Text); err != nil {
				t.Fatalf("%s: register %s: %v", c.name, r.ID, err)
			}
		}
		m := g.Metrics()
		if m.DistinctShapes != c.shapes || m.ShapeSubscribers != s.tenants {
			t.Fatalf("%s: %d shapes over %d subscribers, want %d over %d",
				c.name, m.DistinctShapes, m.ShapeSubscribers, c.shapes, s.tenants)
		}
	}
}

// small versions of the in-process workloads, for runs of a second.
var smallSpecs = []spec{
	{name: "distinct", tenants: 24, shapes: 6, jitter: 0.05, shards: 1},
	{name: "churn", tenants: 60, shapes: 12, shards: 4, relay: 0.1, churnEvery: 50 * time.Millisecond},
}

// A short run passes every check, and a single flipped verdict in the
// reference comparison fails it.
func TestFlippedVerdictFailsRun(t *testing.T) {
	for _, s := range smallSpecs {
		t.Run(s.name, func(t *testing.T) {
			rec := runInProcess(s, 5, 1, false)
			verify(s, 5, rec)
			if res := assemble([]*runRecord{rec}, false); !res.Correct {
				t.Fatalf("clean run failed its checks: %v", rec.Failures)
			}
			if rec.Verdicts == 0 || len(rec.Sample) != sampleSize {
				t.Fatalf("run recorded %d verdicts and %d sampled tenants", rec.Verdicts, len(rec.Sample))
			}
			for _, vs := range rec.Sample {
				vs[len(vs)/2].Value = !vs[len(vs)/2].Value
				break
			}
			rec.Failed, rec.Failures = 0, nil
			verify(s, 5, rec)
			res := assemble([]*runRecord{rec}, false)
			if res.Correct || res.Failed != 1 {
				t.Fatalf("flipped verdict: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
			}
			if ok := res.Metrics["ok_frac"].Value; ok >= 1 {
				t.Fatalf("flipped verdict left ok_frac at %v", ok)
			}
		})
	}
}

// A traced run reports every per-layer metric, and its phases nest in
// the tick wall time.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, s := range smallSpecs {
		t.Run(s.name, func(t *testing.T) {
			rec := runInProcess(s, 9, 1, true)
			if rec.Failed != 0 {
				t.Fatalf("traced run failed: %v", rec.Failures)
			}
			res := assemble([]*runRecord{rec}, true)
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := rec.Layers[d.name]; !ok {
					t.Errorf("traced run did not compute %s", d.name)
				}
			}
			if got := res.Metrics["admit.admitted"].Value; got < float64(s.tenants) {
				t.Errorf("admit.admitted = %v, want at least %d", got, s.tenants)
			}
			if c := res.Metrics["bench.phase_cover"].Value; c <= 0 || c > 1 {
				t.Errorf("bench.phase_cover = %v, want in (0, 1]", c)
			}
		})
	}
}

func TestSummariseTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	d := summarise(xs)
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Fatalf("summarise = %+v, want n 100, p50 50.5, tail 90 at p90", d)
	}
	if d := summarise([]float64{3, 1, 2}); d.Tail != 3 || d.TailPct != 100 {
		t.Fatalf("few samples: %+v, want the maximum at p100", d)
	}
	// 1,000 samples make five blocks of 200, each with its tail at p95;
	// the reported tail is their median.
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if d := summarise(xs); d.Blocks != 5 || d.Tail != 590 || d.TailPct != 95 {
		t.Fatalf("five blocks: %+v, want the median of 190, 390, ..., 990 at p95", d)
	}
	// 18 samples leave one beyond the tail.
	if d := summarise(xs[:18]); d.Tail != 17 {
		t.Fatalf("18 samples: %+v, want the second highest", d)
	}
}

func TestRateMeterWindows(t *testing.T) {
	var rec runRecord
	start := time.Now().Add(-rateWindow - time.Millisecond)
	m := newRateMeter(start)
	rec.Verdicts = 500
	m.mark(&rec)
	if len(rec.RateWindows) != 1 {
		t.Fatalf("%d windows after crossing the first boundary, want 1", len(rec.RateWindows))
	}
	if r := rec.RateWindows[0]; r > 500/rateWindow.Seconds() || r < 400/rateWindow.Seconds() {
		t.Fatalf("window rate %v, want just under %v", r, 500/rateWindow.Seconds())
	}
	m.mark(&rec)
	if len(rec.RateWindows) != 1 {
		t.Fatalf("a mark inside the next window closed it")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{cfg.EndToEnd, endToEnd}, {cfg.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics listed, benchmark reports %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: %s (%s), want %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}
