package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paotr/internal/corpus"
)

// cseBenchService registers a duplicated-shape fleet for the CSE
// benchmark (one worker, so per-tick work is deterministic), each tenant
// under its own soloExecutor when soloTenants is set (see cseFleet).
func cseBenchService(tb testing.TB, cfg corpus.CSEConfig, soloTenants bool, opts ...Option) *Service {
	tb.Helper()
	// History 8 on every arm: the per-identity Results buffer is an
	// orthogonal O(tenants*history) product feature — at 10k tenants the
	// default of 64 retains ~640k executions whose GC scanning would
	// dominate the measurement on both sides of the comparison.
	return cseFleet(tb, cfg, soloTenants, append([]Option{WithWorkers(1), WithHistory(8)}, opts...)...)
}

// timeTicks returns the average steady-state wall-clock time of one
// tick, discarding each result (Run would retain every tick's execution
// slice and measure the garbage collector instead of the tick).
func timeTicks(svc *Service, warmup, ticks int) time.Duration {
	for i := 0; i < warmup; i++ {
		svc.Tick()
	}
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		svc.Tick()
	}
	return time.Since(t0) / time.Duration(ticks)
}

// cseBenchFile is the machine-readable shape-factoring artifact tracked
// PR-over-PR. SpeedupGated is the only gated metric: the raw factored
// speedup on a 10k-tenant/100-shape fleet is host-noisy far above the
// acceptance floor, so the gate watches a capped value — it moves only
// when factoring genuinely degrades toward the floor, not when a fast
// host makes the headline bigger.
type cseBenchFile struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Tenants    int `json:"tenants"`
	Shapes     int `json:"shapes"`
	// Per-tick wall-clock of the 10k-tenant fleet with factoring on and
	// off under per-query planning (see the writer for why), of the
	// factored fleet under the full default pipeline, and of a 100-query
	// fleet holding one subscriber per shape.
	FactoredTickMs   float64 `json:"factored_tick_ms"`
	UnfactoredTickMs float64 `json:"unfactored_tick_ms"`
	FullTickMs       float64 `json:"full_tick_ms"`
	SingletonTickMs  float64 `json:"singleton_tick_ms"`
	// Speedup is UnfactoredTickMs / FactoredTickMs (raw, ungated);
	// FanoutOverhead is FullTickMs / SingletonTickMs — what carrying
	// 9,900 extra subscriber identities costs over the 100 evaluations.
	Speedup        float64 `json:"speedup"`
	FanoutOverhead float64 `json:"fanout_overhead"`
	// SpeedupGated = min(Speedup, 12): the committed regression floor.
	SpeedupGated float64 `json:"cse_speedup_gated"`
	// SharedPerTick is the deterministic number of executions served by
	// leader fan-out each tick (tenants - shapes).
	SharedPerTick float64 `json:"shared_per_tick"`
}

// TestWriteCSEBenchJSON emits BENCH_cse.json when PAOTR_BENCH_CSE_JSON
// names an output path (the CI perf-trajectory artifact; skipped
// otherwise). It carries the tentpole's acceptance assertions: a
// 10k-tenant fleet drawing on 100 distinct shapes must tick at least 5x
// faster factored than unfactored, and within 3x of a 100-query fleet
// that holds one subscriber per shape.
func TestWriteCSEBenchJSON(t *testing.T) {
	out := os.Getenv("PAOTR_BENCH_CSE_JSON")
	if out == "" {
		t.Skip("set PAOTR_BENCH_CSE_JSON=<path> to write the benchmark artifact")
	}
	cfg := corpus.CSEConfig{Tenants: 10000, Shapes: 100, Streams: 32, Seed: 271}

	// The speedup arms run with per-query planning: a joint planner over
	// 10k unfactored queries is quadratic and would dominate the
	// unfactored tick, inflating the ratio. Planning per query on both
	// sides (independentExecutor factored, one soloExecutor per tenant
	// unfactored) isolates the evaluation-path factoring, so the gated
	// speedup is a conservative lower bound on the end-to-end benefit.
	factored := cseBenchService(t, cfg, false, WithExecutor(independentExecutor{}))
	factoredTick := timeTicks(factored, 10, 100)
	m := factored.Metrics()
	if m.DistinctShapes != cfg.Shapes {
		t.Fatalf("factored fleet interned %d shapes, want %d", m.DistinctShapes, cfg.Shapes)
	}
	factored = nil

	unfactored := cseBenchService(t, cfg, true)
	unfactoredTick := timeTicks(unfactored, 2, 8)
	unfactored = nil
	runtime.GC() // drop the dead arms before the ratio-sensitive ones

	// The fan-out-overhead arm keeps the full default pipeline (joint
	// fleet planning included): factored, 10k tenants over 100 shapes
	// must tick close to a 100-query fleet holding one tenant per shape.
	full := cseBenchService(t, cfg, false)
	fullTick := timeTicks(full, 10, 100)
	single := cfg
	single.Tenants = cfg.Shapes
	singleton := cseBenchService(t, single, false)
	singletonTick := timeTicks(singleton, 10, 300)

	speedup := unfactoredTick.Seconds() / factoredTick.Seconds()
	overhead := fullTick.Seconds() / singletonTick.Seconds()
	if speedup < 5 {
		t.Errorf("factored 10k/100-shape fleet speedup %.1fx over unfactored, want >= 5x", speedup)
	}
	if overhead > 3 {
		t.Errorf("factored 10k-tenant fleet ticks %.2fx slower than the 100-query fleet, want <= 3x", overhead)
	}

	file := cseBenchFile{
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		Tenants:          cfg.Tenants,
		Shapes:           cfg.Shapes,
		FactoredTickMs:   factoredTick.Seconds() * 1e3,
		UnfactoredTickMs: unfactoredTick.Seconds() * 1e3,
		FullTickMs:       fullTick.Seconds() * 1e3,
		SingletonTickMs:  singletonTick.Seconds() * 1e3,
		Speedup:          speedup,
		FanoutOverhead:   overhead,
		SpeedupGated:     min(speedup, 12),
		SharedPerTick:    float64(cfg.Tenants - cfg.Shapes),
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if dir := filepath.Dir(out); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: tick %.2fms factored vs %.2fms unfactored (%.1fx), %.2fms singleton (%.2fx overhead)",
		out, file.FactoredTickMs, file.UnfactoredTickMs, speedup, file.SingletonTickMs, overhead)
}
