// Telehealth: the paper's motivating scenario (Section I). A wearable
// platform monitors a patient continuously; an alert query fires either
// when the heart rate is high while the patient is stationary, or when the
// heart rate is low and blood oxygen saturation is low:
//
//	(AVG(heart-rate,5) > 100 AND MAX(accelerometer,4) < 12)
//	OR (AVG(heart-rate,5) < 50 AND spo2 < 92)
//
// The heart-rate stream appears in both disjuncts — a shared query. The
// engine estimates predicate probabilities from execution history, plans
// with the paper's best heuristic, and pulls only the sensor data it
// needs. The example compares the adaptive engine's energy use against a
// push model that ships every sample to the device.
package main

import (
	"fmt"

	"paotr/internal/engine"
	"paotr/internal/stream"
	"paotr/internal/trace"
)

const alertQuery = `(AVG(heart-rate,5) > 100 AND MAX(accelerometer,4) < 12)
	OR (AVG(heart-rate,5) < 50 AND spo2 < 92)`

func main() {
	reg := stream.NewRegistry()
	check(reg.Add(stream.HeartRate(2014), stream.BLE))
	check(reg.Add(stream.SpO2(2015), stream.BLE))
	check(reg.Add(stream.Accelerometer(2016), stream.WiFi))

	store := trace.NewStore()
	eng := engine.New(reg, engine.WithEstimator(store))
	q, err := eng.Compile(alertQuery)
	if err != nil {
		panic(err)
	}
	fmt.Println("telehealth alert query (shared: heart-rate in both disjuncts)")
	fmt.Printf("DNF: %v\n\n", q.Tree())

	cache, err := q.NewCache()
	check(err)
	const steps = 1000
	results, err := q.Run(cache, steps)
	check(err)

	alerts := 0
	evaluated := 0
	for _, r := range results {
		if r.Value {
			alerts++
		}
		evaluated += r.Evaluated
	}

	// Push baseline: every stream ships its new item every step.
	push := 0.0
	for k := 0; k < reg.Len(); k++ {
		push += reg.At(k).Cost.PerItem() * steps
	}

	fmt.Printf("monitored %d steps, %d alerts\n", steps, alerts)
	fmt.Printf("predicates evaluated per step: %.2f of %d\n",
		float64(evaluated)/steps, q.Tree().NumLeaves())
	fmt.Printf("energy, adaptive pull: %8.1f J\n", cache.Spent())
	fmt.Printf("energy, push model:    %8.1f J\n", push)
	fmt.Printf("battery saved: %.1f%%\n\n", 100*(1-cache.Spent()/push))

	fmt.Println("probabilities learned from history:")
	for _, p := range store.Predicates() {
		est, n := store.Estimate(p)
		fmt.Printf("  %-34s p=%.3f  (%d evals)\n", p, est, n)
	}

	// Show the final plan: the engine orders the cheap, likely-failing
	// predicates first so most steps stop after one or two pulls.
	last := results[len(results)-1]
	fmt.Printf("\nfinal adaptive schedule: %v\n", last.Schedule.Names(last.Tree))
	fmt.Printf("expected cost per step at convergence: %.3f J (actual last step: %.3f J)\n",
		last.ExpectedCost, last.Cost)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
