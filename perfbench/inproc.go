package main

import (
	"runtime"
	"sync"
	"time"

	"paotr/internal/engine"
	"paotr/internal/service"
)

// runInProcess serves the workload in this process: it builds the gated
// runtime, registers the initial fleet, runs the first tick (set-up),
// then a closed loop of ticks and sample reads for the given duration,
// with the churn writer beside it where the workload has one. A traced
// run alternates traced and untraced ticks and fills rec.Layers.
func runInProcess(s spec, seed uint64, seconds int, traced bool) *runRecord {
	fleet := s.initialFleet(seed)
	sample := s.sample(fleet, seed)
	rec := newRecord(fleet, sample)
	fs := newFleetState(sample)
	var acc layerAcc
	sc := s.opSchedule(seed, seconds)
	storm := s.churnEvery == 0 // registrations happen only in the set-up storm

	runtime.GC()
	start := time.Now()
	g := s.runtime(seed)
	if traced {
		g.SetTraceSampling(1)
	}
	for _, r := range fleet {
		if traced {
			t := time.Now()
			if _, err := g.QuoteRegister(r.ID, r.Text); err != nil {
				rec.fail("quote %s: %v", r.ID, err)
			}
			// Quotes are kept for the registrations register_* times:
			// on churn, the writer's, not the set-up storm's.
			if storm {
				acc.quoteUs = append(acc.quoteUs, us(time.Since(t)))
			}
		}
		t := time.Now()
		err := g.Register(r.ID, r.Text)
		if storm {
			rec.RegisterUs = append(rec.RegisterUs, us(time.Since(t)))
		}
		rec.Attempted++
		if err != nil {
			rec.fail("register %s: %v", r.ID, err)
			continue
		}
		fs.add(r.ID)
	}
	t := time.Now()
	first := g.Tick()
	wall := time.Since(t)
	rec.SetupS = time.Since(start).Seconds()
	fs.observe(rec, first)
	rec.Attempted++ // the tick itself
	if traced {
		acc.addTick(rec, first.Tick, g.TickTraces(first.Tick), s.shards, wall)
	}

	m0 := g.Metrics()
	rec.Verdicts = 0 // verdicts_per_s counts the steady phase only
	// mu orders the writer's ops against ticks and the fleet state, as
	// the runtime's own lock orders them against each other. The writer
	// keeps its own record and layer samples until it has stopped.
	var mu sync.Mutex
	var wrec runRecord
	var wacc layerAcc
	stop := make(chan struct{})
	var wg sync.WaitGroup
	steadyStart := time.Now()
	deadline := steadyStart.Add(time.Duration(seconds) * time.Second)
	rate := newRateMeter(steadyStart)
	if s.churnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			churn(g, &wrec, &wacc, fs, &mu, sc, steadyStart, deadline, traced, stop)
		}()
	}

	var plain runtime.MemStats
	for i := 0; time.Now().Before(deadline); i++ {
		// A traced run alternates blocks of traced and untraced ticks; the
		// untraced ones give the tracing overhead and the allocation count.
		traceThis := traced && (i/traceBlock)%2 == 0
		if traceThis {
			g.SetTraceSampling(1)
		} else if traced {
			g.SetTraceSampling(0)
			runtime.ReadMemStats(&plain)
		}
		before := plain.Mallocs
		t := time.Now()
		mu.Lock()
		res := g.Tick()
		wall := time.Since(t)
		if traced && !traceThis {
			runtime.ReadMemStats(&plain)
			acc.allocs = append(acc.allocs, float64(plain.Mallocs-before))
		}
		fs.observe(rec, res)
		rec.Attempted++ // the tick itself
		mu.Unlock()
		rec.SteadyTicks++
		rec.TickMs = append(rec.TickMs, float64(wall.Nanoseconds())/1e6)
		if traced {
			if traceThis {
				acc.tickTracedMs = append(acc.tickTracedMs, float64(wall.Nanoseconds())/1e6)
				acc.addTick(rec, res.Tick, g.TickTraces(res.Tick), s.shards, wall)
			} else {
				acc.tickPlainMs = append(acc.tickPlainMs, float64(wall.Nanoseconds())/1e6)
			}
		}
		for _, id := range sample {
			t := time.Now()
			got, err := g.Results(id, 1)
			rec.ReadUs = append(rec.ReadUs, us(time.Since(t)))
			rec.Attempted++
			if err != nil {
				rec.fail("read %s: %v", id, err)
				continue
			}
			fs.checkRead(rec, id, got)
		}
		rate.mark(rec)
	}
	close(stop)
	wg.Wait()
	rec.SteadyS = time.Since(steadyStart).Seconds()
	rec.absorb(&wrec)
	acc.quoteUs = append(acc.quoteUs, wacc.quoteUs...)
	acc.unregisterUs = wacc.unregisterUs
	acc.genLagMs = wacc.genLagMs

	m1 := g.Metrics()
	finish(rec, m0, m1)
	if traced {
		if s.churnEvery == 0 {
			// No unregisters in the loop: time tearing down the sample.
			for _, id := range sample {
				t := time.Now()
				if err := g.Unregister(id); err != nil {
					rec.fail("unregister %s: %v", id, err)
				}
				acc.unregisterUs = append(acc.unregisterUs, us(time.Since(t)))
			}
		}
		acc.compileUs = timeCompiles(s, seed, fleet, sc.arrivals)
		rec.Layers = acc.perLayer(m0, m1, rec.SteadyTicks)
	}
	return rec
}

// churn is the open-loop writer: at each due time it removes the oldest
// unpinned tenant and registers a fresh distinct shape. Registration
// latency runs from the due time, so a stalled writer's backlog shows.
// rec and acc belong to the writer; fs is shared under mu.
func churn(g *service.AdmissionGate, rec *runRecord, acc *layerAcc, fs *fleetState,
	mu *sync.Mutex, sc schedule, start, deadline time.Time, traced bool, stop <-chan struct{}) {
	for k, due := range sc.due {
		at := start.Add(due)
		if !at.Before(deadline) {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(time.Until(at)):
		}
		if lag := float64(time.Since(at).Nanoseconds()) / 1e6; lag > acc.genLagMs {
			acc.genLagMs = lag
		}
		fresh := sc.arrivals[k]
		if traced {
			t := time.Now()
			if _, err := g.QuoteRegister(fresh.ID, fresh.Text); err != nil {
				rec.fail("quote %s: %v", fresh.ID, err)
			}
			acc.quoteUs = append(acc.quoteUs, us(time.Since(t)))
		}
		mu.Lock()
		if victim, ok := fs.oldestUnpinned(); ok {
			t := time.Now()
			err := g.Unregister(victim)
			acc.unregisterUs = append(acc.unregisterUs, us(time.Since(t)))
			rec.Attempted++
			if err != nil {
				rec.fail("unregister %s: %v", victim, err)
			} else {
				fs.remove(victim)
			}
		}
		err := g.Register(fresh.ID, fresh.Text)
		rec.RegisterUs = append(rec.RegisterUs, us(time.Since(at)))
		rec.Attempted++
		if err != nil {
			rec.fail("register %s: %v", fresh.ID, err)
		} else {
			fs.add(fresh.ID)
		}
		mu.Unlock()
	}
}

// finish derives the run's cost figures from the metrics read after
// set-up (m0) and after the steady phase (m1), and checks the fleet-level
// invariants.
func finish(rec *runRecord, m0, m1 service.Metrics) {
	rec.JPerTick = ratio(m1.PaidCost-m0.PaidCost, float64(rec.SteadyTicks))
	if m1.FleetExpectedCost > m1.IndependentExpectedCost {
		rec.fail("joint expected cost %.6f exceeds independent %.6f",
			m1.FleetExpectedCost, m1.IndependentExpectedCost)
	}
	if m1.Admission != nil && m1.Admission.DeferredPending > 0 {
		rec.Attempted += int64(m1.Admission.DeferredPending)
		rec.fail("%d deferred registrations still pending", m1.Admission.DeferredPending)
	}
}

// timeCompiles times compiling each distinct text the run registered on
// a fresh engine, the way the sharded runtime compiles a newcomer.
func timeCompiles(s spec, seed uint64, fleet, arrivals []reg) []float64 {
	streams := s.registry(seed)
	seen := map[string]bool{}
	var out []float64
	for _, r := range append(append([]reg(nil), fleet...), arrivals...) {
		if seen[r.Text] || len(out) >= 256 {
			continue
		}
		seen[r.Text] = true
		t := time.Now()
		if _, err := engine.New(streams).Compile(r.Text); err == nil {
			out = append(out, us(time.Since(t)))
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func newRecord(fleet []reg, sample []string) *runRecord {
	rec := &runRecord{Texts: map[string]string{}, Sample: map[string][]verdict{}}
	for _, r := range fleet {
		for _, id := range sample {
			if r.ID == id {
				rec.Texts[id] = r.Text
			}
		}
	}
	return rec
}
