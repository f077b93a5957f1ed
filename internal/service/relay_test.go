package service

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"paotr/internal/acquisition"
)

// TestShardedRelayRecoversSharing is the tentpole check: on the
// overlapping-tenant corpus, sharding at K=4 loses most of the fleet's
// modelled sharing (every shard re-buys the shared stream), and the
// fleet-global relay must recover it — both in the model
// (SharingLostPctRelay << SharingLostPct) and in realized spend (the
// relay run pays measurably less than the relay-less run).
func TestShardedRelayRecoversSharing(t *testing.T) {
	const tenants, shards, ticks = 12, 4, 80
	run := func(frac float64) Metrics {
		reg := overlapRegistry(t, tenants, 99)
		opts := []Option{WithWorkers(2)}
		if frac > 0 {
			opts = append(opts, WithRelay(frac))
		}
		sh := NewSharded(reg, shards, opts...)
		overlapFleet(t, sh, tenants)
		sh.Run(ticks)
		return sh.Metrics()
	}
	base := run(0)
	relay := run(0.1)

	if base.RelayEnabled || base.RelayHits != 0 {
		t.Fatalf("relay-less run reports relay activity: %+v", base)
	}
	if !relay.RelayEnabled || relay.RelayTransferFrac != 0.1 {
		t.Fatalf("relay run not enabled at frac 0.1: enabled=%v frac=%v",
			relay.RelayEnabled, relay.RelayTransferFrac)
	}
	if relay.RelayHits == 0 || relay.RelayPurchases == 0 {
		t.Fatalf("relay saw no traffic: hits=%d purchases=%d", relay.RelayHits, relay.RelayPurchases)
	}
	if relay.RelayTransferSpend <= 0 || relay.RelaySavedSpend <= 0 {
		t.Fatalf("relay spend not accounted: transfer=%v saved=%v",
			relay.RelayTransferSpend, relay.RelaySavedSpend)
	}
	// The modelled residual loss after relay discounts is frac of the raw
	// loss — far below the acceptance bound of 25%.
	if relay.SharingLostPctRelay >= 25 {
		t.Errorf("modelled sharing lost with relay = %.1f%%, want < 25%%", relay.SharingLostPctRelay)
	}
	if relay.SharingLostPctRelay >= relay.SharingLostPct {
		t.Errorf("relay loss %.1f%% not below raw loss %.1f%%",
			relay.SharingLostPctRelay, relay.SharingLostPct)
	}
	// Realized: the relay run must be cheaper than the relay-less run by
	// at least half of what it claims to have saved (the claim is exact,
	// but plans may differ slightly under the discounted cost model).
	if relay.PaidCost >= base.PaidCost {
		t.Errorf("relay run paid %.2f J, relay-less paid %.2f J — no realized saving",
			relay.PaidCost, base.PaidCost)
	}
	if saved := base.PaidCost - relay.PaidCost; saved < relay.RelaySavedSpend/2 {
		t.Errorf("realized saving %.2f J < half the claimed relay saving %.2f J", saved, relay.RelaySavedSpend)
	}
	// Per-stream accounting: relay hits concentrate on the shared stream
	// (index 0), and the per-stream sums must cover the fleet totals.
	var hits int64
	for _, ps := range relay.PerStream {
		hits += ps.RelayHits
	}
	if hits != relay.RelayHits {
		t.Errorf("per-stream relay hits sum %d != fleet relay hits %d", hits, relay.RelayHits)
	}
	if relay.PerStream[0].RelayHits == 0 {
		t.Errorf("shared stream saw no relay hits: %+v", relay.PerStream[0])
	}
}

// TestShardedRelayZeroFracIdentical pins the byte-identity guarantee:
// WithRelay(0) must leave the sharded runtime exactly as it is without
// the option — same executions, same metrics JSON.
func TestShardedRelayZeroFracIdentical(t *testing.T) {
	const tenants, shards, ticks = 6, 3, 40
	run := func(opts ...Option) ([]TickResult, []byte) {
		reg := overlapRegistry(t, tenants, 7)
		sh := NewSharded(reg, shards, append(opts, WithWorkers(1))...)
		overlapFleet(t, sh, tenants)
		res := sh.Run(ticks)
		met := sh.Metrics()
		met.PlanNanos = 0     // wall-clock, never byte-stable
		met.TickLatency = nil // wall-clock histograms, never byte-stable
		for i := range met.PerShard {
			met.PerShard[i].TickLatency = nil
		}
		m, err := json.Marshal(met)
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	baseRes, baseM := run()
	zeroRes, zeroM := run(WithRelay(0))
	br, _ := json.Marshal(baseRes)
	zr, _ := json.Marshal(zeroRes)
	if string(br) != string(zr) {
		t.Fatalf("WithRelay(0) changed tick results")
	}
	if string(baseM) != string(zeroM) {
		t.Fatalf("WithRelay(0) changed metrics:\nbase: %s\nzero: %s", baseM, zeroM)
	}
}

// TestShardedRelayTotalsDeterministic: which shard wins an item's full
// purchase is race-dependent, but the fleet's totals are not — an item
// needed by m shards costs full + (m-1)*frac*full whichever shard wins.
// With the corpus's integer costs and frac 0.25 every quantity is exact
// in binary floating point, so repeated runs must agree exactly.
func TestShardedRelayTotalsDeterministic(t *testing.T) {
	const tenants, shards, ticks = 8, 4, 50
	run := func() (float64, float64, int64) {
		reg := overlapRegistry(t, tenants, 3)
		sh := NewSharded(reg, shards, WithWorkers(2), WithRelay(0.25))
		overlapFleet(t, sh, tenants)
		sh.Run(ticks)
		m := sh.Metrics()
		return m.PaidCost, m.RelayTransferSpend, m.RelayPurchases
	}
	paid0, spend0, buys0 := run()
	for i := 0; i < 3; i++ {
		paid, spend, buys := run()
		if paid != paid0 || spend != spend0 || buys != buys0 {
			t.Fatalf("run %d diverged: paid %v/%v transfer %v/%v purchases %d/%d",
				i, paid, paid0, spend, spend0, buys, buys0)
		}
	}
}

// TestShardedRelayPlannerDiscount: with the relay on, the coordinator
// installs the relay-discounted per-stream scales on every worker
// (shared by 4 shards at frac 0.1 -> (1+3*0.1)/4), and the discounted
// price steers the joint planner toward the relayed stream — the relay
// run evaluates the shared branch first where the undiscounted run
// prefers the private branch.
func TestShardedRelayPlannerDiscount(t *testing.T) {
	const tenants, shards, ticks = 10, 4, 40
	run := func(frac float64) (*Sharded, Metrics) {
		reg := overlapRegistry(t, tenants, 21)
		opts := []Option{WithWorkers(1)}
		if frac > 0 {
			opts = append(opts, WithRelay(frac))
		}
		sh := NewSharded(reg, shards, opts...)
		overlapFleet(t, sh, tenants)
		sh.Run(ticks)
		return sh, sh.Metrics()
	}
	_, base := run(0)
	sh, relay := run(0.1)
	for i := 0; i < shards; i++ {
		svc := sh.Shard(i)
		svc.mu.Lock()
		scale := append([]float64(nil), svc.costScale...)
		svc.mu.Unlock()
		want := (1 + float64(shards-1)*0.1) / float64(shards)
		if len(scale) == 0 || scale[0] != want {
			t.Fatalf("worker %d shared-stream scale = %v, want %v", i, scale, want)
		}
	}
	// The discounted shared stream wins the leaf order: the relay run
	// requests it more than the undiscounted run does.
	if relay.PerStream[0].Requested <= base.PerStream[0].Requested {
		t.Errorf("relay run requested shared %d times, base %d — discount did not steer the planner",
			relay.PerStream[0].Requested, base.PerStream[0].Requested)
	}
	if relay.RelayJointExpectedCost <= 0 || relay.RelayJointExpectedCost >= relay.ShardJointExpectedCost {
		t.Errorf("relay joint model %.2f J not inside (0, shard joint %.2f J)",
			relay.RelayJointExpectedCost, relay.ShardJointExpectedCost)
	}
}

// startRemoteFleet spins n worker processes (as httptest servers over
// WorkerHandler) sharing one corpus seed, and returns their endpoints.
func startRemoteFleet(t *testing.T, tenants, n int, frac float64, seed uint64) []string {
	t.Helper()
	servers := startRemoteServers(t, tenants, n, frac, seed)
	endpoints := make([]string, n)
	for i, srv := range servers {
		endpoints[i] = srv.URL
	}
	return endpoints
}

// startRemoteServers is startRemoteFleet returning the servers, for
// tests that take a worker down.
func startRemoteServers(t *testing.T, tenants, n int, frac float64, seed uint64) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		reg := overlapRegistry(t, tenants, seed)
		var mirror *acquisition.ItemRelay
		opts := []Option{WithWorkers(1), WithShardIndex(i)}
		if frac > 0 {
			mirror = acquisition.NewItemRelay(reg.Len(), frac)
			opts = append(opts, WithSharedRelay(mirror))
		}
		srv := httptest.NewServer(NewWorkerHandler(New(reg, opts...), mirror))
		t.Cleanup(srv.Close)
		servers[i] = srv
	}
	return servers
}

// TestShardedRemoteWorkers drives the coordinator over HTTP workers:
// registrations place across processes, ticks merge every worker's
// executions, relay deltas sync at tick boundaries, and a restarted
// coordinator adopts the standing queries.
func TestShardedRemoteWorkers(t *testing.T) {
	const tenants, workers, ticks = 8, 4, 60
	endpoints := startRemoteFleet(t, tenants, workers, 0.1, 17)
	sh, err := NewShardedRemote(overlapRegistry(t, tenants, 17), endpoints, WithRelay(0.1))
	if err != nil {
		t.Fatal(err)
	}
	overlapFleet(t, sh, tenants)

	assign := sh.Assignment()
	used := map[int]bool{}
	for _, s := range assign {
		used[s] = true
	}
	if len(used) < 2 {
		t.Fatalf("all queries landed on one worker: %v", assign)
	}
	for i, tr := range sh.Run(ticks - 20) {
		if len(tr.Executions) != tenants {
			t.Fatalf("tick %d merged %d executions, want %d", i, len(tr.Executions), tenants)
		}
	}
	// Relay mirrors sync at tick boundaries, so a worker's steady-state
	// pulls are L1 hits — remote relay transfers surface when demand
	// moves between workers. Register a single-leaf probe query (always
	// evaluated), let its worker build pull history, then move it: the
	// destination's first pull of the probe's stream misses L1 and the
	// mirror serves the items the old worker already published.
	if err := sh.Register("obs", "AVG(private0,4) > 0.2 [p=0.9]"); err != nil {
		t.Fatal(err)
	}
	sh.Run(10)
	sh.mu.Lock()
	from := sh.assign["obs"]
	to := (from + 1) % workers
	sh.moveLocked("obs", from, to, true)
	sh.assign["obs"] = to
	sh.lossDirty, sh.scalesDirty = true, true
	sh.mu.Unlock()
	sh.Run(10)
	m := sh.Metrics()
	if m.Executions != int64(tenants*ticks+20) {
		t.Fatalf("fleet executions = %d, want %d", m.Executions, tenants*ticks+20)
	}
	if !m.RelayEnabled || m.RelayHits == 0 {
		t.Fatalf("remote relay saw no traffic: enabled=%v hits=%d", m.RelayEnabled, m.RelayHits)
	}
	if m.RelayPurchases == 0 || m.RelayTransferSpend <= 0 {
		t.Fatalf("remote relay purchase counters empty: purchases=%d transfer=%v",
			m.RelayPurchases, m.RelayTransferSpend)
	}
	if _, err := sh.Results("tenant0", 5); err != nil {
		t.Fatalf("Results over remote worker: %v", err)
	}

	// Coordinator restart: a fresh coordinator over the same workers must
	// adopt every standing query and keep ticking without re-registering.
	sh2, err := NewShardedRemote(overlapRegistry(t, tenants, 17), endpoints, WithRelay(0.1))
	if err != nil {
		t.Fatal(err)
	}
	const standing = tenants + 1 // the tenant fleet plus the probe
	if got := len(sh2.QueryIDs()); got != standing {
		t.Fatalf("restarted coordinator adopted %d queries, want %d", got, standing)
	}
	if diff := len(sh2.Assignment()); diff != standing {
		t.Fatalf("restarted coordinator assignment size %d, want %d", diff, standing)
	}
	tr := sh2.Tick()
	if len(tr.Executions) != standing {
		t.Fatalf("restarted coordinator tick merged %d executions, want %d", len(tr.Executions), standing)
	}
	// Unregister through the restarted coordinator reaches the worker.
	if err := sh2.Unregister("tenant0"); err != nil {
		t.Fatal(err)
	}
	if tr := sh2.Tick(); len(tr.Executions) != standing-1 {
		t.Fatalf("after unregister, tick merged %d executions, want %d", len(tr.Executions), standing-1)
	}
}

// TestShardedRemoteWorkersEscapeIDs: query ids holding URL syntax ("/",
// "?", "%", "#") must round-trip through the HTTP worker protocol —
// results, per-query metrics, profiles and unregistration all reach the
// right query on its worker.
func TestShardedRemoteWorkersEscapeIDs(t *testing.T) {
	const tenants = 4
	endpoints := startRemoteFleet(t, tenants, 2, 0, 3)
	sh, err := NewShardedRemote(overlapRegistry(t, tenants, 3), endpoints)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a/b", "x?y", "p%q", "h#1"}
	for i, id := range ids {
		text := fmt.Sprintf("(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private%d,4) > 0.2 [p=0.5])", i)
		if err := sh.Register(id, text); err != nil {
			t.Fatalf("register %q: %v", id, err)
		}
	}
	sh.Run(3)
	for _, id := range ids {
		res, err := sh.Results(id, 1)
		if err != nil || len(res) != 1 || res[0].ID != id {
			t.Errorf("Results(%q) = %+v, %v; want its latest execution", id, res, err)
		}
		qm, err := sh.QueryMetrics(id)
		if err != nil || qm.ID != id || qm.Executions != 3 {
			t.Errorf("QueryMetrics(%q) = %+v, %v; want 3 executions", id, qm, err)
		}
		if _, keys, ok := sh.workers[sh.Assignment()[id]].ProfileTree(id); !ok || len(keys) == 0 {
			t.Errorf("ProfileTree(%q) found no profile", id)
		}
	}
	for _, id := range ids {
		if err := sh.Unregister(id); err != nil {
			t.Errorf("Unregister(%q): %v", id, err)
		}
	}
	if tr := sh.Tick(); len(tr.Executions) != 0 {
		t.Fatalf("after unregistering every id, tick merged %d executions: %+v", len(tr.Executions), tr.Executions)
	}
}

// TestShardedRemoteWorkersQuoteLikeLocal: a coordinator over remote
// workers prices registrations exactly as the in-process runtime does —
// a twin of a resident shape is free and shared, and every quote, before
// and after ticks warm the caches, equals the in-process 2-shard quote.
func TestShardedRemoteWorkersQuoteLikeLocal(t *testing.T) {
	const tenants, seed = 6, 11
	remote, err := NewShardedRemote(overlapRegistry(t, tenants, seed), startRemoteFleet(t, tenants, 2, 0, seed))
	if err != nil {
		t.Fatal(err)
	}
	local := NewSharded(overlapRegistry(t, tenants, seed), 2, WithWorkers(1))
	overlapFleet(t, remote, tenants)
	overlapFleet(t, local, tenants)
	if !reflect.DeepEqual(remote.Assignment(), local.Assignment()) {
		t.Fatalf("placements differ: remote %v, local %v", remote.Assignment(), local.Assignment())
	}
	twin := "(AVG(shared,4) > 0.2 [p=0.5]) OR (AVG(private0,4) > 0.2 [p=0.5])"
	texts := []string{
		twin,
		"AVG(shared,4) > 0.3 [p=0.4]",
		"(AVG(shared,4) > 0.2 [p=0.5]) AND (AVG(private1,4) > 0.2 [p=0.6])",
		"AVG(private2,2) < 0.7",
	}
	compare := func(phase string) {
		t.Helper()
		for i, text := range texts {
			id := fmt.Sprintf("new%d", i)
			rq, err := remote.QuoteRegister(id, text)
			if err != nil {
				t.Fatalf("%s: remote quote %q: %v", phase, text, err)
			}
			lq, err := local.QuoteRegister(id, text)
			if err != nil {
				t.Fatalf("%s: local quote %q: %v", phase, text, err)
			}
			if rq != lq {
				t.Errorf("%s: quote %q: remote %+v, local %+v", phase, text, rq, lq)
			}
			if text == twin && (!rq.SharedShape || rq.MarginalJPerTick != 0) {
				t.Errorf("%s: twin quote %+v, want SharedShape and 0 J", phase, rq)
			}
		}
	}
	compare("cold")
	remote.Run(10)
	local.Run(10)
	compare("after 10 ticks")
}

// TestShardedRemoteMetricsMonotonic: a worker that stops answering must
// not pull the fleet's cumulative counters backwards — the coordinator
// keeps merging that worker's last good metrics snapshot.
func TestShardedRemoteMetricsMonotonic(t *testing.T) {
	const tenants = 6
	servers := startRemoteServers(t, tenants, 2, 0, 13)
	sh, err := NewShardedRemote(overlapRegistry(t, tenants, 13), []string{servers[0].URL, servers[1].URL})
	if err != nil {
		t.Fatal(err)
	}
	overlapFleet(t, sh, tenants)
	var prev Metrics
	for tick := 0; tick < 20; tick++ {
		if tick == 10 {
			servers[1].Close()
		}
		sh.Tick()
		m := sh.Metrics()
		if m.Executions < prev.Executions || m.PaidCost < prev.PaidCost {
			t.Fatalf("tick %d: merged counters ran backwards: executions %d -> %d, paid %.3f -> %.3f",
				tick, prev.Executions, m.Executions, prev.PaidCost, m.PaidCost)
		}
		prev = m
	}
	if prev.Executions <= int64(10*tenants)/2 {
		t.Errorf("fleet executions = %d: the surviving worker stopped counting", prev.Executions)
	}
}

// TestShardedRemoteRepartition moves a query between worker processes:
// estimator evidence must migrate over the wire and the moved query must
// keep executing on its new worker.
func TestShardedRemoteRepartition(t *testing.T) {
	const tenants, workers = 6, 3
	endpoints := startRemoteFleet(t, tenants, workers, 0.1, 5)
	sh, err := NewShardedRemote(overlapRegistry(t, tenants, 5), endpoints, WithRelay(0.1))
	if err != nil {
		t.Fatal(err)
	}
	overlapFleet(t, sh, tenants)
	sh.Run(20)
	sh.Repartition()
	for i, tr := range sh.Run(10) {
		if len(tr.Executions) != tenants {
			t.Fatalf("post-repartition tick %d merged %d executions, want %d",
				i, len(tr.Executions), tenants)
		}
	}
	m := sh.Metrics()
	if m.Repartitions != 1 {
		t.Fatalf("repartitions = %d, want 1", m.Repartitions)
	}
	if m.Executions != int64(tenants*30) {
		t.Fatalf("executions = %d, want %d", m.Executions, tenants*30)
	}
}

// TestRelayTransferFracSweep checks the cost model across transfer
// fractions: total realized spend must be monotone non-decreasing in
// frac (cheaper transfers can only help), with frac=1 no better than
// the relay-less baseline.
func TestRelayTransferFracSweep(t *testing.T) {
	const tenants, shards, ticks = 8, 4, 40
	run := func(frac float64, on bool) float64 {
		reg := overlapRegistry(t, tenants, 11)
		opts := []Option{WithWorkers(1)}
		if on {
			opts = append(opts, WithRelay(frac))
		}
		sh := NewSharded(reg, shards, opts...)
		overlapFleet(t, sh, tenants)
		sh.Run(ticks)
		return sh.Metrics().PaidCost
	}
	base := run(0, false)
	fracs := []float64{0.25, 0.5, 1}
	var prev float64
	for i, f := range fracs {
		paid := run(f, true)
		if i > 0 && paid < prev-1e-9 {
			t.Errorf("frac %.2f paid %.2f J < frac %.2f's %.2f J — not monotone",
				f, paid, fracs[i-1], prev)
		}
		if paid > base+1e-9 {
			t.Errorf("frac %.2f paid %.2f J above relay-less baseline %.2f J", f, paid, base)
		}
		prev = paid
	}
}
