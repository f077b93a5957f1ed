package main

import (
	"time"

	"paotr/internal/obs"
	"paotr/internal/service"
)

// layerAcc gathers a traced run's per-layer samples. Phase times are
// taken from the slowest shard's trace of each tick: that shard is the
// one the tick result waits for.
type layerAcc struct {
	quoteUs, unregisterUs, compileUs          []float64
	planMs, acquireMs, executeMs, fanoutMs    []float64
	selfMs, coordMs, skew, duePerClass, cover []float64
	allocs                                    []float64
	tickTracedMs, tickPlainMs                 []float64
	firstPlanMs                               float64
	edgeMs, bodyKB                            []float64
	non2xx                                    int
	genLagMs                                  float64
}

// addTick folds in the traces of one traced tick whose wall time, as
// the caller of Tick saw it, was wall. Every shard must have left one
// trace: a missing one means the tracer ring dropped it.
func (a *layerAcc) addTick(rec *runRecord, tick int64, traces []obs.TickTrace, shards int, wall time.Duration) {
	if len(traces) != shards {
		rec.fail("tick %d: %d traces, want one per shard (%d)", tick, len(traces), shards)
		return
	}
	slowest := traces[0]
	var total, due, classes int64
	for _, t := range traces {
		if t.TotalNs > slowest.TotalNs {
			slowest = t
		}
		total += t.TotalNs
		due += int64(t.DueQueries)
		classes += int64(t.DueClasses)
	}
	// The slowest shard's four phases, its tick's own time outside them
	// (advancing the cache, draining detector trips, electing class
	// leaders) and the caller's time outside the shard ticks (the
	// coordinator's merge on a sharded runtime, the gate and the lock
	// otherwise) add up to the wall time. They must nest: neither
	// remainder may be negative beyond the timer slack.
	phases := slowest.PlanNs + slowest.AcquireNs + slowest.ExecuteNs + slowest.FanOutNs
	self := slowest.TotalNs - phases
	coord := wall.Nanoseconds() - slowest.TotalNs
	if self < -nestSlackNs || coord < -nestSlackNs {
		rec.fail("tick %d: trace spans do not nest: phases %d ns, shard total %d ns, wall %d ns",
			tick, phases, slowest.TotalNs, wall.Nanoseconds())
	}
	a.planMs = append(a.planMs, ms(slowest.PlanNs))
	a.acquireMs = append(a.acquireMs, ms(slowest.AcquireNs))
	a.executeMs = append(a.executeMs, ms(slowest.ExecuteNs))
	a.fanoutMs = append(a.fanoutMs, ms(slowest.FanOutNs))
	a.selfMs = append(a.selfMs, ms(self))
	a.coordMs = append(a.coordMs, ms(coord))
	a.skew = append(a.skew, ratio(float64(slowest.TotalNs), float64(total)/float64(shards)))
	a.duePerClass = append(a.duePerClass, ratio(float64(due), float64(classes)))
	a.cover = append(a.cover, ratio(float64(phases+coord), float64(wall.Nanoseconds())))
	if a.firstPlanMs == 0 && tick == 1 {
		a.firstPlanMs = ms(slowest.PlanNs)
	}
}

// nestSlackNs absorbs the service timing its fan-out phase a moment
// after its tick total.
const nestSlackNs = 50_000

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// perLayer turns the accumulated samples and the metrics read before (m0)
// and after (m1) the steady phase into the per-layer metrics.
func (a *layerAcc) perLayer(m0, m1 service.Metrics, steadyTicks int) map[string]float64 {
	census := map[string]float64{}
	if m1.Admission != nil {
		for _, row := range m1.Admission.Decisions {
			for action, n := range row {
				census[action] += float64(n)
			}
		}
	}
	loadSkew := 1.0
	if len(m1.PerShard) > 0 {
		var max, sum float64
		for _, s := range m1.PerShard {
			sum += s.ExpectedLoad
			if s.ExpectedLoad > max {
				max = s.ExpectedLoad
			}
		}
		loadSkew = ratio(max, sum/float64(len(m1.PerShard)))
	}
	perTick := func(a, b float64) float64 { return ratio(b-a, float64(steadyTicks)) }
	quote := summarise(a.quoteUs)
	return map[string]float64{
		"admit.quote_p50_us":  quote.P50,
		"admit.quote_tail_us": quote.Tail,
		"admit.admitted":      census["admit"],
		"admit.deferred":      census["defer"],
		"admit.shed":          census["shed"],

		"service.fanout_ms":       median(a.fanoutMs),
		"service.due_per_class":   median(a.duePerClass),
		"service.shared_frac":     ratio(float64(m1.SharedExecutions), float64(m1.Executions)),
		"service.allocs_per_tick": median(a.allocs),
		"service.unregister_us":   median(a.unregisterUs),
		"service.tick_self_ms":    median(a.selfMs),
		"service.coord_ms":        median(a.coordMs),
		"service.shard_skew":      median(a.skew),

		"fleet.plan_ms":          median(a.planMs),
		"fleet.first_plan_ms":    a.firstPlanMs,
		"fleet.reuse_frac":       ratio(float64(m1.FleetPlanReuses), float64(m1.FleetPlans)),
		"fleet.incremental_frac": ratio(float64(m1.FleetPlanIncremental), float64(m1.FleetPlans)),
		"fleet.modelled_saving":  m1.FleetModelledSaving,

		"engine.execute_ms": median(a.executeMs),
		"engine.compile_us": median(a.compileUs),
		"engine.predicates_per_verdict": ratio(float64(m1.PredicatesEvaluated-m0.PredicatesEvaluated),
			float64(m1.Executions-m0.Executions)),
		"engine.plan_cache_hit_frac": m1.PlanCacheHitRate,

		"acquisition.acquire_ms":          median(a.acquireMs),
		"acquisition.cache_hit_frac":      m1.CacheHitRate,
		"acquisition.items_per_tick":      perTick(float64(m0.CacheTransferred), float64(m1.CacheTransferred)),
		"acquisition.relay_hits_per_tick": perTick(float64(m0.RelayHits), float64(m1.RelayHits)),
		"acquisition.dup_spend_per_tick":  perTick(m0.CrossShardDuplicateSpend, m1.CrossShardDuplicateSpend),

		"shard.sharing_lost_pct": m1.SharingLostPct,
		"shard.load_skew":        loadSkew,
		"shard.repartitions":     float64(m1.Repartitions),

		"adapt.trips":          float64(m1.PredicateDetectorTrips + m1.CostDetectorTrips),
		"adapt.replans_forced": float64(m1.ReplansForced),

		"obs.trace_overhead_pct": 100 * (ratio(median(a.tickTracedMs), median(a.tickPlainMs)) - 1),

		"paotrserve.tick_edge_ms": median(a.edgeMs),
		"paotrserve.tick_body_kb": median(a.bodyKB),
		"paotrserve.non2xx":       float64(a.non2xx),

		"bench.gen_lag_ms":     a.genLagMs,
		"bench.phase_cover":    median(a.cover),
		"bench.traced_ticks":   float64(len(a.cover)),
		"bench.untraced_ticks": float64(len(a.tickPlainMs)),
	}
}
