package engine

import (
	"testing"

	"paotr/internal/stream"
	"paotr/internal/trace"
)

// planReg is a registry of constant streams: stable values, so warm cache
// state reaches a steady state and only probability drift can force a
// re-plan.
func planReg(t *testing.T) *stream.Registry {
	t.Helper()
	reg := stream.NewRegistry()
	for _, s := range []stream.Source{
		stream.Constant("a", 10),
		stream.Constant("b", 20),
	} {
		if err := reg.Add(s, stream.BLE); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestPlanCacheReusesOnStableState(t *testing.T) {
	e := New(planReg(t)) // default threshold 0: exact-match reuse
	q, err := e.Compile("AVG(a,3) > 5 [p=0.7] AND b > 15 [p=0.6]")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	for i := 0; i < 10; i++ {
		cache.Advance(1)
		r, err := q.Execute(cache)
		if err != nil {
			t.Fatal(err)
		}
		if r.PlanReused {
			reused++
		}
		if i == 0 && r.PlanReused {
			t.Error("first execution cannot reuse a plan")
		}
	}
	// Tick 1 plans cold, tick 2 plans against the new steady-state warm
	// fingerprint, every later tick reuses.
	if reused < 7 {
		t.Errorf("plan reused on %d/10 stable ticks, want >= 7", reused)
	}
}

func TestPlanCacheRePlansOnProbabilityDrift(t *testing.T) {
	store := trace.NewStore()
	e := New(planReg(t), WithEstimator(store), WithReplanThreshold(0.05))
	// No annotations: probabilities come from the trace store, which we
	// drift by hand between plans.
	q, err := e.Compile("a > 5 AND b > 15")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	if _, err := q.Execute(cache); err != nil { // cold plan, fills the cache
		t.Fatal(err)
	}

	// Same cache state, small drift: executing recorded one success per
	// predicate, moving the smoothed estimate from 0.5 to 2/3 — wait, that
	// exceeds 0.05. Re-plan is expected on the second run; from then on
	// each extra success moves the estimate less and less.
	p, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reused {
		t.Error("estimates moved 0.5 -> 2/3 (> threshold) but plan was reused")
	}

	// With the fingerprint refreshed and no new evidence, planning again
	// at the same state must reuse.
	p, err = q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reused {
		t.Error("no drift since last plan, but planner re-ran")
	}

	// Drift the estimate past the threshold by recording failures; the
	// next plan must not reuse.
	for i := 0; i < 10; i++ {
		store.Record("a > 5", false)
	}
	p, err = q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reused {
		t.Error("probability drifted past the threshold but plan was reused")
	}

	// A negative threshold disables reuse entirely.
	e2 := New(planReg(t), WithReplanThreshold(-1))
	q2, err := e2.Compile("a > 5 [p=0.7] AND b > 15 [p=0.6]")
	if err != nil {
		t.Fatal(err)
	}
	cache2, err := q2.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache2.Advance(1)
	for i := 0; i < 3; i++ {
		r, err := q2.Execute(cache2)
		if err != nil {
			t.Fatal(err)
		}
		if r.PlanReused {
			t.Fatal("negative threshold must disable plan reuse")
		}
	}
}

func TestPlanCacheRePlansOnWarmChange(t *testing.T) {
	e := New(planReg(t))
	q, err := e.Compile("AVG(a,4) > 5 [p=0.9] AND AVG(b,2) > 15 [p=0.9]")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	p1, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Reused {
		t.Fatal("first plan cannot be a reuse")
	}
	// Pulling items changes the warm fingerprint: the next plan at the
	// same probabilities must re-plan, not reuse.
	cache.Pull(0, 4)
	p2, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Reused {
		t.Error("warm state changed but plan was reused")
	}
	// Unchanged state now: reuse, and InvalidatePlan forces a fresh run.
	p3, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Reused {
		t.Error("unchanged state should reuse")
	}
	if p3.ExpectedCost != p2.ExpectedCost {
		t.Errorf("exact-match reuse changed expected cost: %v != %v", p3.ExpectedCost, p2.ExpectedCost)
	}
	q.InvalidatePlan()
	p4, err := q.Plan(cache)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Reused {
		t.Error("InvalidatePlan did not drop the cached plan")
	}
}
