package service

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"paotr/internal/corpus"
	"paotr/internal/stream"
)

// cseService builds a service over a CSE fleet's stream space and
// registers every tenant. Stream content is seeded per stream index, so
// two services built from the same config observe identical items.
func cseService(tb testing.TB, cfg corpus.CSEConfig, opts ...Option) *Service {
	tb.Helper()
	return cseFleet(tb, cfg, false, opts...)
}

// cseSoloService is cseService with every tenant registered under its
// own soloExecutor: the unfactored, independently planned baseline.
func cseSoloService(tb testing.TB, cfg corpus.CSEConfig, opts ...Option) *Service {
	tb.Helper()
	return cseFleet(tb, cfg, true, opts...)
}

// cseFleet builds the CSE fleet, registering each tenant under its own
// soloExecutor when soloTenants is set.
func cseFleet(tb testing.TB, cfg corpus.CSEConfig, soloTenants bool, opts ...Option) *Service {
	tb.Helper()
	reg := stream.NewRegistry()
	for i, name := range cfg.StreamNames() {
		if err := reg.Add(stream.Uniform(name, uint64(i+1)), stream.CostModel{BaseJoules: 1}); err != nil {
			tb.Fatal(err)
		}
	}
	svc := New(reg, opts...)
	for _, q := range corpus.CSEFleet(cfg) {
		var qopts []QueryOption
		if soloTenants {
			qopts = solo(q.ID)
		}
		if err := svc.Register(q.ID, q.Text, qopts...); err != nil {
			tb.Fatal(err)
		}
	}
	return svc
}

// sameVerdicts fails unless every execution of got carries the id,
// verdict and error of the matching execution of want.
func sameVerdicts(t *testing.T, label string, got, want []TickResult) {
	t.Helper()
	for ti := range want {
		for i := range want[ti].Executions {
			g, w := got[ti].Executions[i], want[ti].Executions[i]
			if g.ID != w.ID || g.Value != w.Value || g.Err != w.Err {
				t.Fatalf("%s tick %d tenant %s: verdict (%v, %q) != baseline (%v, %q)",
					label, ti+1, w.ID, g.Value, g.Err, w.Value, w.Err)
			}
		}
	}
}

// Property: on a fleet where every query's shape is unique, shape
// factoring is a pure no-op. Planned per query, the factored fleet's
// plans, costs and executions are byte-identical, tick for tick, to the
// unfactored baseline's (one soloExecutor per tenant). Under the default
// pipeline, whose joint planner changes costs but never truth values,
// every verdict matches the baseline and no execution is shared.
func TestShapeFactoringAllUniqueByteIdentical(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 24, Shapes: 24, Streams: 8, Seed: 41}
	run := func(svc *Service) ([]TickResult, Metrics) { return svc.Run(60), svc.Metrics() }
	ft, fm := run(cseService(t, cfg, WithWorkers(1), WithExecutor(independentExecutor{})))
	ut, um := run(cseSoloService(t, cfg, WithWorkers(1)))
	dt, dm := run(cseService(t, cfg, WithWorkers(1)))
	if !reflect.DeepEqual(ft, ut) {
		for i := range ft {
			if !reflect.DeepEqual(ft[i], ut[i]) {
				t.Fatalf("tick %d diverged:\nfactored   %+v\nunfactored %+v", i+1, ft[i], ut[i])
			}
		}
		t.Fatal("tick results diverged")
	}
	sameVerdicts(t, "default pipeline", dt, ut)
	for _, m := range []Metrics{fm, dm} {
		if m.SharedExecutions != 0 {
			t.Errorf("all-unique fleet shared %d executions, want 0", m.SharedExecutions)
		}
		if m.DistinctShapes != cfg.Tenants {
			t.Errorf("DistinctShapes = %d, want %d", m.DistinctShapes, cfg.Tenants)
		}
	}
	if dm.FleetPlannedExecutions != dm.Executions {
		t.Errorf("default pipeline fleet-planned %d of %d executions", dm.FleetPlannedExecutions, dm.Executions)
	}
	type cmp struct {
		name string
		f, u any
	}
	for _, c := range []cmp{
		{"Executions", fm.Executions, um.Executions},
		{"PaidCost", fm.PaidCost, um.PaidCost},
		{"ExpectedCost", fm.ExpectedCost, um.ExpectedCost},
		{"PredicatesEvaluated", fm.PredicatesEvaluated, um.PredicatesEvaluated},
		{"PlanCacheHits", fm.PlanCacheHits, um.PlanCacheHits},
		{"FleetPlans", fm.FleetPlans, um.FleetPlans},
		{"FleetPlanReuses", fm.FleetPlanReuses, um.FleetPlanReuses},
		{"FleetExpectedCost", fm.FleetExpectedCost, um.FleetExpectedCost},
		{"BatchedCost", fm.BatchedCost, um.BatchedCost},
	} {
		if c.f != c.u {
			t.Errorf("%s: factored %v != unfactored %v", c.name, c.f, c.u)
		}
	}
}

// normalizeShared strips the factoring-only surface from an execution so
// it can be compared against the per-query baseline.
func normalizeShared(e Execution) Execution {
	e.Shared = false
	return e
}

// Property: over random duplicated-shape fleets, every tenant observes
// exactly the per-query baseline (one soloExecutor per tenant) —
// verdict, realized cost, modelled cost and evaluated count — when
// factoring shares the evaluation. One worker and per-query planning
// keep the baseline deterministic: a baseline twin executes the leader's
// schedule against the items the leader just pulled, so its realized
// cost is 0 there too.
func TestShapeFactoringMatchesPerTenantBaseline(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		cfg := corpus.CSEConfig{
			Tenants: 8 + trial%9,
			Shapes:  1 + trial%5,
			Streams: 3 + trial%5,
			Seed:    uint64(1000 + trial),
		}
		ft := cseService(t, cfg, WithWorkers(1), WithExecutor(independentExecutor{}),
			withCumulativeEstimator()).Run(8)
		ut := cseSoloService(t, cfg, WithWorkers(1), withCumulativeEstimator()).Run(8)
		for ti := range ft {
			for i := range ft[ti].Executions {
				fe, ue := normalizeShared(ft[ti].Executions[i]), ut[ti].Executions[i]
				if fe != ue {
					t.Fatalf("trial %d (%d tenants / %d shapes) tick %d tenant %s:\nfactored   %+v\nbaseline   %+v",
						trial, cfg.Tenants, cfg.Shapes, ti+1, ue.ID, fe, ue)
				}
			}
		}
	}
}

// Property: with the full default pipeline (joint fleet planning,
// batching, windowed estimator), factoring must still deliver exactly
// the unfactored baseline's verdict to every tenant. Costs may differ —
// the joint planner sees distinct shapes instead of every tenant, so
// twin schedules and short-circuit pulls legitimately change — but
// truth values cannot.
func TestShapeFactoringVerdictsMatchFleetPlanned(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		cfg := corpus.CSEConfig{
			Tenants: 10 + trial%7,
			Shapes:  2 + trial%4,
			Streams: 4 + trial%3,
			Seed:    uint64(7000 + trial),
		}
		ft := cseService(t, cfg, WithWorkers(1)).Run(12)
		ut := cseSoloService(t, cfg, WithWorkers(1)).Run(12)
		sameVerdicts(t, fmt.Sprintf("trial %d", trial), ft, ut)
	}
}

// A duplicated fleet ticks through a probability regime shift: the
// Page-Hinkley trip on the shared estimator-driven predicate must
// invalidate the one shape-class plan, and every subscriber must observe
// the leader's replanned execution — twins stay equal to the leader
// through the shift, and the modelled cost visibly moves.
func TestDriftTripReplansShapeClassForAllSubscribers(t *testing.T) {
	rcfg := corpus.RegimeConfig{Seed: 17, ShiftStep: 120}
	reg := corpus.RegimeRegistry(rcfg)
	svc := New(reg, WithWorkers(1))
	text := corpus.RegimeQueries(rcfg)[0] // estimator-driven predicates
	const twins = 10
	for i := 0; i < twins; i++ {
		if err := svc.Register(fmt.Sprintf("t%d", i), text); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.DistinctShapes != 1 || m.ShapeSubscribers != twins {
		t.Fatalf("got %d shapes / %d subscribers, want 1 / %d", m.DistinctShapes, m.ShapeSubscribers, twins)
	}
	results := svc.Run(2 * int(rcfg.ShiftStep))
	expChangedAt := int64(0)
	var prevExp float64
	for ti, tr := range results {
		lead := tr.Executions[0]
		if lead.Shared {
			t.Fatalf("tick %d: leader execution flagged Shared", tr.Tick)
		}
		for _, e := range tr.Executions[1:] {
			if !e.Shared {
				t.Fatalf("tick %d: twin %s not shared", tr.Tick, e.ID)
			}
			if e.Value != lead.Value || e.ExpectedCost != lead.ExpectedCost || e.Evaluated != lead.Evaluated {
				t.Fatalf("tick %d: twin %s diverged from leader:\ntwin   %+v\nleader %+v", tr.Tick, e.ID, e, lead)
			}
			if e.Cost != 0 {
				t.Fatalf("tick %d: twin %s paid %.3f, want 0", tr.Tick, e.ID, e.Cost)
			}
		}
		if ti > int(rcfg.ShiftStep) && expChangedAt == 0 && prevExp != 0 && lead.ExpectedCost != prevExp {
			expChangedAt = tr.Tick
		}
		prevExp = lead.ExpectedCost
	}
	m := svc.Metrics()
	if m.PredicateDetectorTrips == 0 {
		t.Error("no predicate detector trips across the regime shift")
	}
	if m.ReplansForced == 0 {
		t.Error("detector trips forced no replans")
	}
	if expChangedAt == 0 {
		t.Error("no subscriber observed a post-shift replan (expected cost never moved)")
	}
	if m.SharedExecutions != int64(len(results))*(twins-1) {
		t.Errorf("SharedExecutions = %d, want %d", m.SharedExecutions, int64(len(results))*(twins-1))
	}
}

// Unregistering one subscriber must leave the class live for the rest —
// the remaining twins keep observing executions, and the cached joint
// plan survives (no staleness marks, pure reuse).
func TestUnregisterSubscriberKeepsClassLive(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 6, Shapes: 2, Streams: 4, Seed: 5}
	svc := cseService(t, cfg, WithWorkers(1))
	svc.Run(5)
	before := svc.Metrics()
	if before.DistinctShapes != 2 {
		t.Fatalf("DistinctShapes = %d, want 2", before.DistinctShapes)
	}
	if err := svc.Unregister("t2"); err != nil { // shape 0 subscriber, not the leader
		t.Fatal(err)
	}
	after := svc.Metrics()
	if after.DistinctShapes != 2 || after.ShapeSubscribers != cfg.Tenants-1 {
		t.Fatalf("after unregister: %d shapes / %d subscribers, want 2 / %d",
			after.DistinctShapes, after.ShapeSubscribers, cfg.Tenants-1)
	}
	reuses := after.FleetPlanReuses
	tr := svc.Tick()
	if got := len(tr.Executions); got != cfg.Tenants-1 {
		t.Fatalf("%d executions after unregister, want %d", got, cfg.Tenants-1)
	}
	final := svc.Metrics()
	if final.FleetPlanReuses <= reuses {
		t.Errorf("unregistering one subscriber broke the joint plan cache (reuses %d -> %d)",
			reuses, final.FleetPlanReuses)
	}
	// And the last subscriber's departure kills the class.
	for _, id := range []string{"t0", "t4"} {
		if err := svc.Unregister(id); err != nil {
			t.Fatal(err)
		}
	}
	if m := svc.Metrics(); m.DistinctShapes != 1 {
		t.Errorf("DistinctShapes = %d after shape 0 fully unregistered, want 1", m.DistinctShapes)
	}
}

// Registering a twin of an already-planned shape must be a pure
// plan-cache hit: no staleness marks, so the next tick reuses the cached
// joint plan.
func TestTwinRegistrationIsPurePlanCacheHit(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 4, Shapes: 2, Streams: 4, Seed: 9}
	svc := cseService(t, cfg, WithWorkers(1))
	svc.Run(20) // enough ticks for warm windows and estimator drift to stabilize
	fleet := corpus.CSEFleet(cfg)
	if err := svc.Register("twin-late", fleet[0].Text); err != nil {
		t.Fatal(err)
	}
	before := svc.Metrics()
	svc.Tick()
	after := svc.Metrics()
	if after.FleetPlanReuses != before.FleetPlanReuses+1 {
		t.Errorf("twin registration forced planner work: reuses %d -> %d (want +1)",
			before.FleetPlanReuses, after.FleetPlanReuses)
	}
	if after.DistinctShapes != 2 {
		t.Errorf("DistinctShapes = %d after twin registration, want 2", after.DistinctShapes)
	}
}

// TestShapeChurnStress registers and unregisters shape twins from
// concurrent goroutines while the fleet ticks — the -race surface for
// the class interning, leader election and fan-out paths.
func TestShapeChurnStress(t *testing.T) {
	cfg := corpus.CSEConfig{Tenants: 12, Shapes: 3, Streams: 6, Seed: 13}
	svc := cseService(t, cfg, WithWorkers(4))
	fleet := corpus.CSEFleet(cfg)
	stop := make(chan struct{})
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for {
			select {
			case <-stop:
				return
			default:
				svc.Tick()
			}
		}
	}()
	const churners = 4
	var wg sync.WaitGroup
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 99))
			for i := 0; i < 60; i++ {
				id := fmt.Sprintf("churn-%d-%d", c, i)
				text := fleet[rng.IntN(len(fleet))].Text
				if err := svc.Register(id, text); err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				if rng.IntN(2) == 0 {
					svc.Tick()
				}
				if err := svc.Unregister(id); err != nil {
					t.Errorf("unregister %s: %v", id, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-tickerDone
	m := svc.Metrics()
	if m.DistinctShapes != cfg.Shapes {
		t.Errorf("DistinctShapes = %d after churn, want %d", m.DistinctShapes, cfg.Shapes)
	}
	if m.ShapeSubscribers != cfg.Tenants {
		t.Errorf("ShapeSubscribers = %d after churn, want %d", m.ShapeSubscribers, cfg.Tenants)
	}
}
