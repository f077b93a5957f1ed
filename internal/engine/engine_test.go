package engine

import (
	"math"
	"strings"
	"testing"

	"paotr/internal/query"
	"paotr/internal/sched"
	"paotr/internal/stream"
	"paotr/internal/trace"
)

func testRegistry(t *testing.T) *stream.Registry {
	t.Helper()
	reg := stream.NewRegistry()
	for _, s := range []struct {
		src  stream.Source
		cost stream.CostModel
	}{
		{stream.HeartRate(1), stream.BLE},
		{stream.SpO2(2), stream.BLE},
		{stream.Accelerometer(3), stream.WiFi},
		{stream.Constant("const-low", 1), stream.BLE},
		{stream.Constant("const-high", 100), stream.BLE},
	} {
		if err := reg.Add(s.src, s.cost); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestCompileBindsStreams(t *testing.T) {
	e := New(testRegistry(t))
	q, err := e.Compile("AVG(heart-rate,5) > 100 AND spo2 < 90")
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Tree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 || !tr.IsAndTree() {
		t.Errorf("tree = %v", tr)
	}
	if tr.Leaves[0].Items != 5 || tr.Leaves[1].Items != 1 {
		t.Error("windows mis-bound")
	}
	if _, err := e.Compile("nosuch < 3"); err == nil {
		t.Error("unknown stream accepted")
	}
	if _, err := e.Compile("AVG(heart-rate,5) >"); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestAnnotationOverridesTrace(t *testing.T) {
	e := New(testRegistry(t))
	q, err := e.Compile("heart-rate > 100 [p=0.25] AND spo2 < 90")
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Tree()
	if tr.Leaves[0].Prob != 0.25 {
		t.Errorf("annotated prob = %v", tr.Leaves[0].Prob)
	}
	if tr.Leaves[1].Prob != 0.5 {
		t.Errorf("default prior prob = %v", tr.Leaves[1].Prob)
	}
}

func TestExecuteDeterministicPredicates(t *testing.T) {
	e := New(testRegistry(t))
	// const-low is always 1, const-high always 100.
	q, err := e.Compile("const-low < 5 AND const-high > 50")
	if err != nil {
		t.Fatal(err)
	}
	cache, err := q.NewCache()
	if err != nil {
		t.Fatal(err)
	}
	cache.Advance(1)
	res, err := q.Execute(cache)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Value {
		t.Error("query should be TRUE")
	}
	if res.Evaluated != 2 {
		t.Errorf("evaluated %d leaves", res.Evaluated)
	}
	per := stream.BLE.PerItem()
	if math.Abs(res.Cost-2*per) > 1e-12 {
		t.Errorf("cost = %v, want %v", res.Cost, 2*per)
	}
}

func TestExecuteShortCircuitsFalse(t *testing.T) {
	e := New(testRegistry(t))
	q, err := e.Compile("const-low > 5 AND const-high > 50")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	cache.Advance(1)
	res, err := q.Execute(cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value {
		t.Error("query should be FALSE")
	}
	// With equal leaf costs and probabilities the planner may evaluate
	// either leaf first, but after the FALSE leaf the other is skipped
	// only if the FALSE one came first; in an AND-tree of two leaves at
	// least one leaf is always evaluated.
	if res.Evaluated < 1 || res.Evaluated > 2 {
		t.Errorf("evaluated %d", res.Evaluated)
	}
}

func TestCacheReuseAcrossLeaves(t *testing.T) {
	e := New(testRegistry(t))
	// Both leaves read const-low; the second one shares the single item.
	q, err := e.Compile("const-low < 5 AND const-low < 2 OR const-low < 1")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	cache.Advance(1)
	res, err := q.Execute(cache)
	if err != nil {
		t.Fatal(err)
	}
	per := stream.BLE.PerItem()
	if math.Abs(res.Cost-per) > 1e-12 {
		t.Errorf("cost = %v, want one item (%v): items must be shared", res.Cost, per)
	}
}

func TestTraceFeedbackAdaptsProbabilities(t *testing.T) {
	store := trace.NewStore()
	e := New(testRegistry(t), WithEstimator(store))
	q, err := e.Compile("const-low < 5 AND const-high < 50")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	results, err := q.Run(cache, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 50 {
		t.Fatalf("%d results", len(results))
	}
	// const-low < 5 is always TRUE, const-high < 50 always FALSE. Once
	// the planner adapts it evaluates the failing leaf first and
	// short-circuits the TRUE leaf, so the TRUE leaf keeps only its early
	// observations (estimate above the 0.5 prior but possibly far from 1)
	// while the failing leaf's estimate is driven toward 0.
	pLow, nLow := store.Estimate("const-low < 5")
	pHigh, nHigh := store.Estimate("const-high < 50")
	if nLow == 0 || pLow <= 0.5 {
		t.Errorf("pLow = %v after %d evals", pLow, nLow)
	}
	if nHigh == 0 || pHigh > 0.1 {
		t.Errorf("pHigh = %v after %d evals", pHigh, nHigh)
	}
	// The adaptive planner must eventually evaluate the almost-surely-
	// FALSE leaf first (cheapest shortcut: both leaves cost one BLE item).
	last := results[len(results)-1]
	if name := last.Tree.LeafName(last.Schedule[0]); name != "const-high < 50" {
		t.Errorf("last schedule starts with %q, want the failing leaf", name)
	}
}

func TestExpectedVsActualCostConverges(t *testing.T) {
	// For deterministic predicates with stable truth values, once traces
	// converge the expected cost of the plan approaches the actual cost.
	e := New(testRegistry(t))
	q, err := e.Compile("const-low < 5 AND const-high > 50")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	results, err := q.Run(cache, 100)
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.ExpectedCost <= 0 {
		t.Fatal("expected cost should be positive")
	}
	if math.Abs(last.ExpectedCost-last.Cost)/last.Cost > 0.2 {
		t.Errorf("expected %v vs actual %v after convergence", last.ExpectedCost, last.Cost)
	}
}

func TestRunAdvancesTime(t *testing.T) {
	e := New(testRegistry(t))
	q, err := e.Compile("heart-rate > 100")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	if _, err := q.Run(cache, 10); err != nil {
		t.Fatal(err)
	}
	if cache.Now() != 10 {
		t.Errorf("Now = %d", cache.Now())
	}
	// Each step needs exactly one new heart-rate item (window 1).
	if cache.Pulls(0) != 10 {
		t.Errorf("pulls = %d, want 10", cache.Pulls(0))
	}
}

func TestWithPlanner(t *testing.T) {
	called := false
	e := New(testRegistry(t), WithPlanner(func(tr *query.Tree) sched.Schedule {
		called = true
		return DefaultPlanner(tr)
	}))
	q, err := e.Compile("const-low < 5")
	if err != nil {
		t.Fatal(err)
	}
	cache, _ := q.NewCache()
	cache.Advance(1)
	if _, err := q.Execute(cache); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("custom planner not used")
	}
}

func TestDNFExpansionOfNestedQuery(t *testing.T) {
	e := New(testRegistry(t))
	q, err := e.Compile("const-low < 5 AND (spo2 < 90 OR heart-rate > 100)")
	if err != nil {
		t.Fatal(err)
	}
	tr := q.Tree()
	if tr.NumAnds() != 2 {
		t.Errorf("expanded to %d ANDs, want 2", tr.NumAnds())
	}
	if tr.NumLeaves() != 4 {
		t.Errorf("%d leaves, want 4 (const-low duplicated)", tr.NumLeaves())
	}
	if !strings.Contains(tr.String(), "const-low < 5") {
		t.Errorf("tree = %v", tr)
	}
	cache, _ := q.NewCache()
	cache.Advance(1)
	if _, err := q.Execute(cache); err != nil {
		t.Fatal(err)
	}
}
