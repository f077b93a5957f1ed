package adapt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"
)

// bernoulli returns a deterministic Bernoulli sampler.
func bernoulli(seed uint64) func(p float64) bool {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	return func(p float64) bool { return rng.Float64() < p }
}

// TestWindowedConvergesOnStationaryStreams: property — for random true
// probabilities, the windowed estimate converges to p within the
// binomial tolerance of the window size on a stationary stream, and the
// confidence interval tightens to cover it.
func TestWindowedConvergesOnStationaryStreams(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 25; trial++ {
		p := 0.05 + 0.9*rng.Float64()
		w := NewWindowed(Config{Window: 128})
		draw := bernoulli(uint64(1000 + trial))
		pred := fmt.Sprintf("pred%d", trial)
		for i := 0; i < 2000; i++ {
			w.Record(pred, draw(p))
		}
		est, n := w.Estimate(pred)
		if n != 128 {
			t.Fatalf("p=%.2f: window fill %d, want 128", p, n)
		}
		// 4 sigma of the windowed mean plus prior shrinkage slack.
		tol := 4*math.Sqrt(p*(1-p)/128) + 0.02
		if math.Abs(est-p) > tol {
			t.Errorf("p=%.2f: windowed estimate %.3f off by more than %.3f", p, est, tol)
		}
		lo, hi := w.Interval(pred)
		if hi-lo <= 0 || hi-lo > 0.5 {
			t.Errorf("p=%.2f: CI [%.3f, %.3f] has implausible width", p, lo, hi)
		}
		if pt, ct := w.Trips(); pt != 0 || ct != 0 {
			t.Errorf("p=%.2f: stationary stream tripped detectors (%d pred, %d cost)", p, pt, ct)
		}
	}
}

// TestPageHinkleyTripsOnShift: property — the detector trips on a
// synthetic 0.2→0.8 shift within two windows of post-shift evaluations,
// the window is flushed so the estimate re-converges immediately, and a
// subscriber sees the event.
func TestPageHinkleyTripsOnShift(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		w := NewWindowed(Config{})
		var events []Event
		w.Subscribe(func(ev Event) { events = append(events, ev) })
		draw := bernoulli(uint64(42 + trial))
		const pre = 500
		for i := 0; i < pre; i++ {
			w.Record("x", draw(0.2))
		}
		if len(events) != 0 {
			t.Fatalf("trial %d: detector tripped during the stationary prefix: %+v", trial, events)
		}
		tripAt := -1
		for i := 0; i < 2*w.Window(); i++ {
			w.Record("x", draw(0.8))
			if len(events) > 0 {
				tripAt = i + 1
				break
			}
		}
		if tripAt < 0 {
			t.Fatalf("trial %d: no trip within two windows of a 0.2→0.8 shift", trial)
		}
		ev := events[0]
		if ev.Kind != KindPredicate || ev.Pred != "x" || ev.Stream != -1 {
			t.Errorf("trial %d: event = %+v", trial, ev)
		}
		if ev.Before > 0.45 {
			t.Errorf("trial %d: pre-shift mean %.3f, want ~0.2-ish", trial, ev.Before)
		}
		// The flush re-converges the estimate on post-shift data fast.
		for i := 0; i < w.Window(); i++ {
			w.Record("x", draw(0.8))
		}
		if est, _ := w.Estimate("x"); math.Abs(est-0.8) > 0.2 {
			t.Errorf("trial %d: estimate %.3f one window after the trip, want ≈0.8", trial, est)
		}
		t.Logf("trial %d: tripped %d evaluations after the shift", trial, tripAt)
	}
}

// TestPageHinkleyQuietOnStationary: property — over 10k stationary
// evaluations at various probabilities the detector never trips.
func TestPageHinkleyQuietOnStationary(t *testing.T) {
	for trial, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		w := NewWindowed(Config{})
		draw := bernoulli(uint64(9000 + trial))
		for i := 0; i < 10_000; i++ {
			w.Record("x", draw(p))
		}
		if pt, _ := w.Trips(); pt != 0 {
			t.Errorf("p=%.1f: %d detector trips over 10k stationary evaluations", p, pt)
		}
	}
}

// TestCostEWMALearnsAndDetectsShift: the per-stream cost track converges
// to the observed per-item cost, and a sustained cost shift trips the
// stream detector, snapping the learned cost to the new level.
func TestCostEWMALearnsAndDetectsShift(t *testing.T) {
	w := NewWindowed(Config{})
	var events []Event
	w.Subscribe(func(ev Event) { events = append(events, ev) })
	for i := 0; i < 100; i++ {
		w.ObserveCost(3, 1.0, 1)
	}
	if c, ok := w.CostPerItem(3); !ok || math.Abs(c-1.0) > 1e-9 {
		t.Fatalf("learned cost = %v, %v; want 1.0", c, ok)
	}
	if len(events) != 0 {
		t.Fatalf("stationary costs tripped the detector: %+v", events)
	}
	tripAt := -1
	for i := 0; i < 50; i++ {
		w.ObserveCost(3, 6.0, 1)
		if len(events) > 0 {
			tripAt = i + 1
			break
		}
	}
	if tripAt < 0 {
		t.Fatal("no cost-detector trip on a 1→6 per-item shift")
	}
	ev := events[0]
	if ev.Kind != KindStreamCost || ev.Stream != 3 || math.Abs(ev.After-6.0) > 1e-9 {
		t.Errorf("event = %+v, want stream-cost on stream 3 with after=6", ev)
	}
	if c, _ := w.CostPerItem(3); math.Abs(c-6.0) > 1e-9 {
		t.Errorf("learned cost after trip = %v, want snapped to 6.0", c)
	}
	t.Logf("cost detector tripped after %d shifted observations", tripAt)
}

// TestWindowedSnapshots: Predicates and StreamCosts expose consistent
// estimator state for metrics.
func TestWindowedSnapshots(t *testing.T) {
	w := NewWindowed(Config{Window: 16})
	for i := 0; i < 20; i++ {
		w.Record("b", i%2 == 0)
		w.Record("a", true)
	}
	w.ObserveCost(0, 2.5, 3)
	preds := w.Predicates()
	if len(preds) != 2 || preds[0].Pred != "a" || preds[1].Pred != "b" {
		t.Fatalf("predicate snapshot = %+v", preds)
	}
	if preds[0].Estimate < 0.85 || preds[0].WindowFill != 16 || preds[0].Evals != 20 {
		t.Errorf("state for always-true predicate = %+v", preds[0])
	}
	if preds[0].CIWidth <= 0 || preds[0].CIWidth >= preds[1].CIWidth+1e-9 {
		// p near 1 has a tighter normal CI than p near 0.5 at equal fill.
		t.Errorf("CI widths: a=%v b=%v", preds[0].CIWidth, preds[1].CIWidth)
	}
	costs := w.StreamCosts()
	if len(costs) != 1 || costs[0].Stream != 0 || costs[0].Observations != 1 {
		t.Fatalf("cost snapshot = %+v", costs)
	}
	if w.AvgCIWidth() <= 0 {
		t.Error("AvgCIWidth = 0 with tracked predicates")
	}
}

// TestWindowedCapEvictsLeastRecentlyRecorded: the estimator must not
// grow without bound — past MaxPredicates, the least-recently-recorded
// predicates are batch-evicted.
func TestWindowedCapEvictsLeastRecentlyRecorded(t *testing.T) {
	w := NewWindowed(Config{MaxPredicates: 64})
	for i := 0; i < 200; i++ {
		w.Record(fmt.Sprintf("pred%03d", i), true)
	}
	if n := len(w.Predicates()); n > 64 || w.Len() != n {
		t.Errorf("tracked predicates = %d (Len %d), want <= cap 64 and equal", n, w.Len())
	}
	if w.Evictions() == 0 {
		t.Error("no evictions recorded past the cap")
	}
	// The most recent predicate survives; the oldest are gone.
	if _, n := w.Estimate("pred199"); n == 0 {
		t.Error("most recent predicate evicted")
	}
	if _, n := w.Estimate("pred000"); n != 0 {
		t.Error("oldest predicate survived a full churn past the cap")
	}
	// Negative cap disables the bound.
	u := NewWindowed(Config{MaxPredicates: -1})
	for i := 0; i < 200; i++ {
		u.Record(fmt.Sprintf("pred%03d", i), true)
	}
	if n := len(u.Predicates()); n != 200 {
		t.Errorf("unbounded estimator tracked %d predicates, want 200", n)
	}
}

// TestWindowedConcurrent hammers one shared estimator from 8 goroutines
// mixing records, estimates, cost observations and snapshots — the
// service's phase-3 concurrency surface. Run under -race in CI.
func TestWindowedConcurrent(t *testing.T) {
	w := NewWindowed(Config{Window: 32})
	w.Subscribe(func(Event) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			draw := bernoulli(uint64(g + 1))
			pred := fmt.Sprintf("p%d", g%4)
			for i := 0; i < 5000; i++ {
				w.Record(pred, draw(0.5))
				if i%7 == 0 {
					w.Estimate(pred)
					w.CIWidth(pred)
				}
				if i%11 == 0 {
					w.ObserveCost(g%3, 1.0+float64(g%3), 1)
				}
				if i%997 == 0 {
					w.Predicates()
					w.StreamCosts()
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if _, n := w.Estimate(fmt.Sprintf("p%d", g)); n != 32 {
			t.Errorf("p%d window fill = %d, want 32", g, n)
		}
	}
}
