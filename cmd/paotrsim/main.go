// Command paotrsim runs the end-to-end query engine on simulated sensor
// streams: it compiles a textual query, plans schedules adaptively from
// trace-estimated probabilities, executes in the pull model over a span of
// time steps, and reports the energy spent against naive baselines.
//
// Usage:
//
//	paotrsim -steps 500 "AVG(heart-rate,5) > 100 AND accelerometer < 12"
//	paotrsim -steps 200 -seed 7 "spo2 < 92 OR (heart-rate > 120 AND gps-speed < 0.5)"
//
// Available streams: heart-rate, spo2, accelerometer, gps-speed,
// temperature (BLE cost model; accelerometer uses WiFi).
package main

import (
	"flag"
	"fmt"
	"os"

	"paotr/internal/engine"
	"paotr/internal/query"
	"paotr/internal/stream"
	"paotr/internal/trace"
)

func main() {
	var (
		steps = flag.Int("steps", 200, "time steps to simulate")
		seed  = flag.Uint64("seed", 1, "sensor simulation seed")
		quiet = flag.Bool("quiet", false, "suppress per-step output")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, `usage: paotrsim [flags] "QUERY"`)
		os.Exit(2)
	}

	reg := stream.Wearables(*seed)
	store := trace.NewStore()
	eng := engine.New(reg, engine.WithEstimator(store))
	q, err := eng.Compile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("query: %s\n", q.Text)
	fmt.Printf("DNF:   %v\n\n", q.Tree())

	cache, err := q.NewCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrsim: %v\n", err)
		os.Exit(1)
	}
	results, err := q.Run(cache, *steps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paotrsim: %v\n", err)
		os.Exit(1)
	}

	trues, evaluated := 0, 0
	for i, r := range results {
		if r.Value {
			trues++
		}
		evaluated += r.Evaluated
		if !*quiet && (i < 5 || (i+1)%50 == 0) {
			fmt.Printf("step %4d: value=%-5v cost=%7.3f J  expected=%7.3f J  evaluated=%d/%d\n",
				i+1, r.Value, r.Cost, r.ExpectedCost, r.Evaluated, len(r.Schedule))
		}
	}

	// Naive baseline: a push model acquires every window every step.
	naive := naiveCost(q.Tree(), reg) * float64(*steps)

	fmt.Printf("\n--- summary over %d steps ---\n", *steps)
	fmt.Printf("query TRUE on %d steps (%.1f%%)\n", trues, 100*float64(trues)/float64(*steps))
	fmt.Printf("predicates evaluated: %d (%.2f per step, of %d leaves)\n",
		evaluated, float64(evaluated)/float64(*steps), q.Tree().NumLeaves())
	fmt.Printf("energy spent (adaptive pull): %9.3f J\n", cache.Spent())
	fmt.Printf("energy naive push baseline:   %9.3f J\n", naive)
	if naive > 0 {
		fmt.Printf("savings: %.1f%%\n", 100*(1-cache.Spent()/naive))
	}
	fmt.Println("\nlearned probabilities:")
	for _, p := range store.Predicates() {
		est, n := store.Estimate(p)
		fmt.Printf("  %-36s p=%.3f (%d evaluations)\n", p, est, n)
	}
}

// naiveCost is the per-step cost of acquiring every stream's maximum
// window with no short-circuiting and no reuse across steps beyond the
// one-step overlap (a fresh item per step per stream plus cold start
// amortized away: we charge the incremental item per stream, the
// best-case push model).
func naiveCost(t *query.Tree, reg *stream.Registry) float64 {
	total := 0.0
	for k, d := range t.StreamMaxItems() {
		if d > 0 {
			// Push model: every step, the device receives the new item of
			// each stream it subscribes to.
			total += reg.At(k).Cost.PerItem()
		}
	}
	return total
}
