package obs

import (
	"sync"
	"sync/atomic"
)

// tracingGate counts enabled tracers process-wide. The hot path asks
// this package-level atomic before doing any per-tick tracing work, so a
// service with tracing disabled (the default) pays one atomic load per
// tick and allocates nothing.
var tracingGate atomic.Int64

// TracingEnabled reports whether any tracer in the process is currently
// sampling. The tick path consults this first; false guarantees the
// whole tracing branch is skipped.
func TracingEnabled() bool { return tracingGate.Load() != 0 }

// ClassTrace is one executed shape class inside a tick trace: which
// leader ran for how many subscribers, whether its plan was a cache hit
// or a replan, and the modelled vs realized cost of the execution.
type ClassTrace struct {
	// Leader is the query id that evaluated for the class this tick;
	// Shape the class's stable plan key (derived from the shape hash);
	// Subscribers how many due identities the verdict fanned out to
	// (including the leader).
	Leader      string `json:"leader"`
	Shape       string `json:"shape"`
	Subscribers int    `json:"subscribers"`
	// PlanReused reports a plan-cache hit; FleetPlanned that the schedule
	// came from the cross-query joint planner.
	PlanReused   bool   `json:"plan_reused"`
	FleetPlanned bool   `json:"fleet_planned,omitempty"`
	Strategy     string `json:"strategy,omitempty"`
	// ExpectedCost is the planner's modelled cost at planning time;
	// RealizedCost what the execution actually paid — the per-class
	// closure of the paper's expected-cost model against reality.
	ExpectedCost float64 `json:"expected_cost"`
	RealizedCost float64 `json:"realized_cost"`
	Evaluated    int     `json:"evaluated"`
	Err          string  `json:"err,omitempty"`
}

// TickTrace is one structured trace of one sampled tick on one service
// (one shard, under the sharded runtime): per-phase durations and the
// per-class planning/execution picture.
type TickTrace struct {
	Tick  int64 `json:"tick"`
	Shard int   `json:"shard"`
	// StartUnixNs is the wall-clock tick start.
	StartUnixNs int64 `json:"start_unix_ns"`
	// Per-phase durations in nanoseconds (see the Phase constants).
	PlanNs    int64 `json:"plan_ns"`
	AcquireNs int64 `json:"acquire_ns"`
	ExecuteNs int64 `json:"execute_ns"`
	FanOutNs  int64 `json:"fanout_ns"`
	TotalNs   int64 `json:"total_ns"`
	// DueQueries counts the due query identities, DueClasses the distinct
	// shape classes they collapsed to (the executed work).
	DueQueries int `json:"due_queries"`
	DueClasses int `json:"due_classes"`
	// Classes holds one entry per executed class, in leader-election
	// order.
	Classes []ClassTrace `json:"classes"`
}

// Tracer records sampled tick traces into a bounded ring buffer. All
// methods are safe for concurrent use and nil-receiver safe. Sampling is
// off by default; SetSample flips the package-level gate so disabled
// tracers cost one atomic load per tick.
type Tracer struct {
	sample atomic.Int64
	mu     sync.Mutex
	ring   []TickTrace
	size   int
	next   int
	filled bool
}

// DefaultTraceCap is the default ring capacity (sampled ticks retained).
const DefaultTraceCap = 256

// NewTracer creates a disabled tracer retaining up to capacity sampled
// ticks (DefaultTraceCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{size: capacity}
}

// SetSample sets the sampling period: every n-th tick is traced; n <= 0
// disables tracing. Toggling maintains the package-level gate.
func (t *Tracer) SetSample(n int) {
	if t == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	old := t.sample.Swap(int64(n))
	switch {
	case old == 0 && n > 0:
		tracingGate.Add(1)
	case old > 0 && n == 0:
		tracingGate.Add(-1)
	}
}

// Sampling returns the current sampling period (0 = disabled).
func (t *Tracer) Sampling() int {
	if t == nil {
		return 0
	}
	return int(t.sample.Load())
}

// Sample reports whether the given tick should be traced. The disabled
// path is one package-gate load (plus one tracer load when some other
// tracer in the process is enabled) and never allocates.
func (t *Tracer) Sample(tick int64) bool {
	if t == nil || !TracingEnabled() {
		return false
	}
	n := t.sample.Load()
	return n > 0 && tick%n == 0
}

// Record stores one tick trace, evicting the oldest when the ring is
// full. The trace's Classes slice is retained as-is (callers hand over
// ownership).
func (t *Tracer) Record(tr TickTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		t.ring = make([]TickTrace, t.size)
	}
	t.ring[t.next] = tr
	if t.next++; t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
}

// ForTick returns every retained trace of the given tick (one per shard
// under the sharded runtime), in recording order. Empty when the tick
// was not sampled or has been evicted.
func (t *Tracer) ForTick(tick int64) []TickTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []TickTrace
	t.scanLocked(func(tr TickTrace) {
		if tr.Tick == tick {
			out = append(out, tr)
		}
	})
	return out
}

// Ticks lists the distinct sampled tick numbers currently retained,
// oldest first.
func (t *Tracer) Ticks() []int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	t.scanLocked(func(tr TickTrace) {
		if n := len(out); n == 0 || out[n-1] != tr.Tick {
			out = append(out, tr.Tick)
		}
	})
	return out
}

// scanLocked visits every retained trace oldest-first. Caller holds
// t.mu.
func (t *Tracer) scanLocked(f func(TickTrace)) {
	if t.ring == nil {
		return
	}
	if t.filled {
		for _, tr := range t.ring[t.next:] {
			f(tr)
		}
	}
	for _, tr := range t.ring[:t.next] {
		f(tr)
	}
}
