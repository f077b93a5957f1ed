package service

import "paotr/internal/engine"

// The service has one tick path. The baselines its tests and benchmark
// writers compare that path against are rebuilt here, in test code only.

// independentExecutor is engine.LinearExecutor under another type. The
// tick path plans jointly only the leaders whose executor is
// engine.LinearExecutor itself, so a fleet on this wrapper plans every
// shape class on its own: the per-query planning baseline, with shape
// factoring still on.
type independentExecutor struct{ engine.LinearExecutor }

// soloExecutor is independentExecutor named after one tenant. Shape
// classes key on the executor name, so a tenant registered under its own
// soloExecutor shares a class with nobody: the unfactored, independently
// planned baseline, where every tenant plans and evaluates its own tree.
type soloExecutor struct {
	engine.LinearExecutor
	tenant string
}

func (x soloExecutor) Name() string { return "solo:" + x.tenant }

// linearExecutor returns the default executor of a linear fleet planned
// jointly (engine.LinearExecutor) or, when joint is false, per query
// (independentExecutor).
func linearExecutor(joint bool) engine.Executor {
	if joint {
		return engine.LinearExecutor{}
	}
	return independentExecutor{}
}

// solo registers each tenant under its own soloExecutor.
func solo(id string) []QueryOption {
	return []QueryOption{WithQueryExecutor(soloExecutor{tenant: id})}
}

// withoutBatching skips the tick's batched first-leaf acquisition
// (phase 2): every due query pulls its own opening window.
func withoutBatching() Option { return func(c *config) { c.noBatch = true } }

// withCumulativeEstimator swaps the windowed online estimator for the
// never-forgetting cumulative trace counter: no sliding windows, no
// learned per-item costs, no change detectors, no forced replans.
func withCumulativeEstimator() Option { return func(c *config) { c.cumulative = true } }

// withoutTickHistograms leaves the per-phase tick-latency histograms
// out, the reference the observability overhead benchmark measures
// against.
func withoutTickHistograms() Option { return func(c *config) { c.histsOff = true } }
