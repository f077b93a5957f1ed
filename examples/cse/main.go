// CSE: cross-tenant shape factoring — plan and evaluate each distinct
// query shape once per tick, however many tenants subscribe to it.
//
// A multi-tenant deployment rarely carries N distinct query shapes:
// tenants install the same alert templates over the same shared feeds.
// The service canonicalizes every registered query's shape (leaves
// sorted within AND terms, terms sorted within the OR) and interns
// identities into shape equivalence classes. Each tick, one leader per
// class evaluates the shared plan and its verdict fans out to every
// subscriber at zero cost; the joint planner and the drift detectors see
// one class, not N twins.
//
// The example registers 1,000 tenants drawing on 20 distinct shapes,
// runs the fleet with factoring on and off over identically seeded
// streams, and prints the per-tick cost of each configuration plus the
// factored fleet's class census — demonstrating that factoring changes
// what is paid and planned, never the verdict any tenant observes.
package main

import (
	"fmt"
	"time"

	"paotr/internal/corpus"
	"paotr/internal/engine"
	"paotr/internal/service"
	"paotr/internal/stream"
)

// tenantExecutor is the linear executor named after one tenant. Shape
// classes key on the executor name, so a tenant registered under its own
// tenantExecutor shares a class with nobody: the unfactored arm, where
// every tenant plans and evaluates its own tree. (The service jointly
// plans only engine.LinearExecutor itself, so the wrapper also plans
// each tenant on its own.)
type tenantExecutor struct {
	engine.LinearExecutor
	tenant string
}

func (x tenantExecutor) Name() string { return "tenant:" + x.tenant }

func newFleet(cfg corpus.CSEConfig, factoring bool) *service.Service {
	reg := stream.NewRegistry()
	for i, name := range cfg.StreamNames() {
		if err := reg.Add(stream.Uniform(name, uint64(i+1)), stream.CostModel{BaseJoules: 1}); err != nil {
			panic(err)
		}
	}
	svc := service.New(reg, service.WithWorkers(4))
	for _, q := range corpus.CSEFleet(cfg) {
		var opts []service.QueryOption
		if !factoring {
			opts = append(opts, service.WithQueryExecutor(tenantExecutor{tenant: q.ID}))
		}
		if err := svc.Register(q.ID, q.Text, opts...); err != nil {
			panic(err)
		}
	}
	return svc
}

func run(cfg corpus.CSEConfig, factoring bool, ticks int) (service.Metrics, time.Duration) {
	svc := newFleet(cfg, factoring)
	t0 := time.Now()
	for i := 0; i < ticks; i++ {
		svc.Tick()
	}
	return svc.Metrics(), time.Since(t0) / time.Duration(ticks)
}

func main() {
	cfg := corpus.CSEConfig{Tenants: 1000, Shapes: 20, Streams: 16, Seed: 42}

	fmt.Printf("shape factoring demo: %d tenants over %d distinct shapes, %d streams\n\n",
		cfg.Tenants, cfg.Shapes, cfg.Streams)

	// The unfactored arm plans and evaluates all 1,000 queries every
	// tick, so it gets fewer ticks; costs are reported per tick.
	off, offTick := run(cfg, false, 10)
	on, onTick := run(cfg, true, 50)

	fmt.Printf("factoring off: %7.2fms/tick  %7.1f J/tick  %d executions/tick\n",
		offTick.Seconds()*1e3, off.PaidCost/10, off.Executions/10)
	fmt.Printf("factoring on:  %7.2fms/tick  %7.1f J/tick  %d executions/tick (%d shared)\n\n",
		onTick.Seconds()*1e3, on.PaidCost/50, on.Executions/50, on.SharedExecutions/50)

	fmt.Printf("class census: %d distinct shapes carry %d subscribers (%.0f per class)\n",
		on.DistinctShapes, on.ShapeSubscribers,
		float64(on.ShapeSubscribers)/float64(on.DistinctShapes))
	fmt.Printf("tick speedup: %.1fx\n", offTick.Seconds()/onTick.Seconds())

	// The negative control: jittered probabilities make every tenant's
	// shape unique, so nothing may be factored and the census degenerates
	// to one class per tenant.
	jcfg := cfg
	jcfg.Tenants, jcfg.Jitter = 200, 0.02
	jm, _ := run(jcfg, true, 10)
	fmt.Printf("\njittered control: %d tenants -> %d classes, %d shared executions\n",
		jcfg.Tenants, jm.DistinctShapes, jm.SharedExecutions)
}
