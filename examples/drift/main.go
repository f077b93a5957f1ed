// Drift: online adaptive estimation on a regime-shifting workload.
//
// The paper infers leaf probabilities "based on historical traces
// obtained for previous query executions" (Section I). A counter over
// all history never forgets: after hundreds of ticks, a real regime
// shift moves its estimate only glacially, so the planner keeps
// executing a schedule built for a world that no longer exists. The
// service's estimator (internal/adapt) instead learns from a sliding
// window, learns per-item costs from realized spend, and runs
// Page-Hinkley change detectors that evict exactly the affected plans on
// a shift.
//
// This example runs the regime-shift corpus (probabilities AND per-item
// prices of streams r0..r3 flip at tick 300) and prints, around the
// shift, the windowed estimate of the flipping predicate "r3 < 0.5"
// next to its true probability (0.1 before, 0.8 after) — the estimate
// re-converges within a window — followed by the detector activity that
// closed the loop and the realized J/tick before and after the shift.
package main

import (
	"fmt"

	"paotr/internal/corpus"
	"paotr/internal/service"
)

const (
	shiftTick = 300
	postTicks = 300
	// watched is the flipping predicate; pBefore/pAfter its true
	// probability in each regime (corpus.RegimeConfig defaults for r3).
	watched         = "r3 < 0.5"
	pBefore, pAfter = 0.1, 0.8
)

func main() {
	cfg := corpus.RegimeConfig{Seed: 17, ShiftStep: shiftTick}
	reg := corpus.RegimeRegistry(cfg)
	svc := service.New(reg, service.WithWorkers(4))
	for i, q := range corpus.RegimeQueries(cfg) {
		if err := svc.Register(fmt.Sprintf("q%d", i), q); err != nil {
			panic(err)
		}
	}

	fmt.Printf("regime-shift corpus: streams r0..r3 flip probabilities and per-item costs at tick %d\n", shiftTick)
	fmt.Printf("predicate under watch: %q — true probability %.2f before the shift, %.2f after\n\n",
		watched, pBefore, pAfter)
	fmt.Printf("%6s %14s %10s\n", "tick", "windowed est", "true p")

	checkpoints := map[int]bool{
		100: true, 200: true, 290: true, 320: true, 340: true,
		360: true, 380: true, 420: true, 500: true, 600: true,
	}
	var atShift service.Metrics
	for tick := 1; tick <= shiftTick+postTicks; tick++ {
		svc.Tick()
		if tick == shiftTick {
			atShift = svc.Metrics()
		}
		if checkpoints[tick] {
			est, _ := svc.Engine().Estimator().Estimate(watched)
			truth, marker := pBefore, ""
			if tick > shiftTick {
				truth, marker = pAfter, "   <- post-shift"
			}
			fmt.Printf("%6d %14.3f %10.2f%s\n", tick, est, truth, marker)
		}
	}

	m := svc.Metrics()
	fmt.Printf("\n--- detector activity ---\n")
	fmt.Printf("predicate trips: %d, cost trips: %d, forced replans: %d, avg CI width: %.2f\n",
		m.PredicateDetectorTrips, m.CostDetectorTrips, m.ReplansForced, m.AvgCIWidth)

	fmt.Printf("\n--- realized acquisition cost ---\n")
	fmt.Printf("before the shift (%d ticks): %.2f J/tick\n", shiftTick, atShift.PaidCost/shiftTick)
	fmt.Printf("after the shift  (%d ticks): %.2f J/tick\n", postTicks, (m.PaidCost-atShift.PaidCost)/postTicks)

	fmt.Printf("\n%-6s %12s %12s %10s\n", "stream", "static J", "learned J", "cost-trips")
	for _, ps := range m.PerStream {
		static := reg.At(ps.Stream).Cost.PerItem()
		fmt.Printf("%-6s %12.2f %12.2f %10d\n", ps.Name, static, ps.LearnedCostPerItem, ps.CostDetectorTrips)
	}
}
