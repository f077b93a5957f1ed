package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"paotr/internal/admit"
	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// spec describes one named workload: the initial fleet, the runtime it
// is served by, and the operations the steady phase mixes in.
type spec struct {
	name string
	// tenants registered before the first tick, drawn from shapes
	// distinct shape templates; jitter > 0 perturbs every tenant's
	// probabilities so no two tenants share a shape.
	tenants, shapes int
	jitter          float64
	// shards is the runtime's K (1 = the plain service); relay the
	// fleet-global item relay's transfer fraction (0 = off).
	shards int
	relay  float64
	// churnEvery is the open-loop arrival interval of the churn writer:
	// each arrival unregisters the oldest unpinned tenant and registers a
	// fresh distinct shape (0 = no writer). Arrivals fall half an interval
	// after each multiple of it, so every rateWindow holds the same number.
	churnEvery time.Duration
	// edge serves the fleet from a paotrserve process over HTTP instead
	// of in process; edgeChurnTicks is the tick period of its DELETE plus
	// POST pair.
	edge           bool
	edgeChurnTicks int
}

// Fleet, sampling and run-layout constants shared by the workloads.
const (
	cseStreams  = 32 // stream.Uniform streams s0..s31, 1 J per item
	sampleSize  = 16 // tenants read after each tick and checked against the reference
	runsPerSeed = 3  // serving processes per untraced run, each on its own fleet
	traceBlock  = 16 // a traced run alternates blocks of this many traced and untraced ticks
	edgeSeed    = 1  // paotrserve's default -seed: the wearables sensor seed
)

var specs = []spec{
	{name: "twins", tenants: 20000, shapes: 100, shards: 1},
	{name: "distinct", tenants: 240, shapes: 240, jitter: 0.05, shards: 1},
	{name: "churn", tenants: 2000, shapes: 200, shards: 4, relay: 0.1, churnEvery: time.Second},
	{name: "edge", tenants: 2000, shapes: 200, shards: 1, edge: true, edgeChurnTicks: 2},
}

func specByName(name string) (spec, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.name == name {
			return s, nil
		}
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// reg is one registration the workload issues.
type reg struct {
	ID, Text string
}

// initialFleet is the fleet registered before the first tick.
func (s spec) initialFleet(seed uint64) []reg {
	if s.edge {
		shapes := wearablesShapes(s.shapes, seed)
		out := make([]reg, s.tenants)
		for i := range out {
			out[i] = reg{ID: fmt.Sprintf("t%d", i), Text: shapes[i%len(shapes)]}
		}
		return out
	}
	fleet := corpus.CSEFleet(corpus.CSEConfig{
		Tenants: s.tenants, Shapes: s.shapes, Streams: cseStreams, Jitter: s.jitter, Seed: seed,
	})
	out := make([]reg, len(fleet))
	for i, q := range fleet {
		out[i] = reg{ID: q.ID, Text: q.Text}
	}
	return out
}

// arrivals returns the first n fresh registrations of the steady phase:
// new tenants with shapes distinct from the initial fleet's.
func (s spec) arrivals(seed uint64, n int) []reg {
	out := make([]reg, n)
	if n == 0 {
		return out
	}
	if s.edge {
		// Draw the initial shapes and the fresh ones from one stream so
		// the fresh texts never repeat a resident shape.
		shapes := wearablesShapes(s.shapes+n, seed)[s.shapes:]
		for i := range out {
			out[i] = reg{ID: fmt.Sprintf("f%d", i), Text: shapes[i]}
		}
		return out
	}
	fleet := corpus.CSEFleet(corpus.CSEConfig{
		Tenants: n, Shapes: n, Streams: cseStreams, Seed: seed ^ 0xf5e5,
	})
	for i, q := range fleet {
		out[i] = reg{ID: fmt.Sprintf("f%d", i), Text: q.Text}
	}
	return out
}

// sample picks the fixed tenants read after every tick and checked
// against the single-query reference. The churners never remove them.
func (s spec) sample(fleet []reg, seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0x5a3b1e))
	idx := rng.Perm(len(fleet))
	n := min(sampleSize, len(fleet))
	out := make([]string, n)
	for i := range out {
		out[i] = fleet[idx[i]].ID
	}
	return out
}

// registry builds the stream registry the fleet runs over. The same
// seed gives the same item values, which the reference relies on.
func (s spec) registry(seed uint64) *stream.Registry {
	if s.edge {
		return stream.Wearables(edgeSeed)
	}
	reg := stream.NewRegistry()
	for i := 0; i < cseStreams; i++ {
		src := stream.Uniform(fmt.Sprintf("s%d", i), seed*1000+uint64(i)+1)
		if err := reg.Add(src, stream.CostModel{BaseJoules: 1}); err != nil {
			panic(err) // unreachable: names are distinct
		}
	}
	return reg
}

// runtime builds the in-process serving stack the way paotrserve does
// with its default flags plus the workload's shard and relay knobs: the
// plain service or the sharded runtime, behind the admission gate.
func (s spec) runtime(seed uint64) *service.AdmissionGate {
	reg := s.registry(seed)
	opts := []service.Option{
		service.WithEngineOptions(engine.WithReplanThreshold(0.02)),
		service.WithExecutor(engine.LinearExecutor{}),
	}
	var rt service.Runtime
	if s.shards > 1 {
		if s.relay > 0 {
			opts = append(opts, service.WithRelay(s.relay))
		}
		rt = service.NewSharded(reg, s.shards, opts...)
	} else {
		rt = service.New(reg, opts...)
	}
	return service.NewAdmissionGate(rt, admit.NewController(admit.DefaultConfig()))
}

// wearablesShapes generates n pairwise-distinct annotated DNF queries
// over the five wearable streams: one or two AND terms of one to three
// leaves each.
func wearablesShapes(n int, seed uint64) []string {
	type bounds struct {
		name   string
		lo, hi float64
	}
	streams := []bounds{
		{"heart-rate", 60, 140},
		{"spo2", 88, 98},
		{"accelerometer", 8, 22},
		{"gps-speed", 0.2, 2.4},
		{"temperature", 18, 26},
	}
	rng := rand.New(rand.NewPCG(seed, 0x3ea7))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		ands := 1 + rng.IntN(2)
		var b strings.Builder
		for a := 0; a < ands; a++ {
			if a > 0 {
				b.WriteString(" OR ")
			}
			leaves := 1 + rng.IntN(3)
			paren := leaves > 1 && ands > 1
			if paren {
				b.WriteByte('(')
			}
			for l := 0; l < leaves; l++ {
				if l > 0 {
					b.WriteString(" AND ")
				}
				st := streams[rng.IntN(len(streams))]
				thr := st.lo + (st.hi-st.lo)*float64(rng.IntN(17))/16
				cmp := "<"
				if rng.IntN(2) == 0 {
					cmp = ">"
				}
				p := 0.05 + 0.9*rng.Float64()
				if w := 1 + rng.IntN(6); w > 1 {
					fmt.Fprintf(&b, "AVG(%s,%d) %s %.2f [p=%.4f]", st.name, w, cmp, thr, p)
				} else {
					fmt.Fprintf(&b, "%s %s %.2f [p=%.4f]", st.name, cmp, thr, p)
				}
			}
			if paren {
				b.WriteByte(')')
			}
		}
		if t := b.String(); !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// schedule is the steady phase's op schedule: the fresh registrations
// (churn and edge) and, for churn's open-loop writer, when each is due
// after the steady phase starts. Edge issues its pairs every
// edgeChurnTicks ticks instead.
type schedule struct {
	due      []time.Duration
	arrivals []reg
}

// opSchedule lays out every steady-phase write the run may issue.
func (s spec) opSchedule(seed uint64, seconds int) schedule {
	var n int
	switch {
	case s.churnEvery > 0:
		n = int(time.Duration(seconds)*time.Second/s.churnEvery) + 1
	case s.edge:
		// One pair per edgeChurnTicks ticks; bounded well above the tick
		// rate the edge loop can reach.
		n = seconds * 400 / s.edgeChurnTicks
	}
	sc := schedule{arrivals: s.arrivals(seed, n)}
	if s.churnEvery > 0 {
		sc.due = make([]time.Duration, n)
		for k := range sc.due {
			sc.due[k] = time.Duration(k)*s.churnEvery + s.churnEvery/2
		}
	}
	return sc
}
