package main

import (
	"fmt"
	"slices"
	"time"

	"paotr/internal/service"
)

// verdict is one execution of a sampled tenant, as the runtime reported
// it in the tick result.
type verdict struct {
	Tick  int64 `json:"t"`
	Value bool  `json:"v"`
}

// runRecord is everything one serving process measured. An in-process
// child prints it as JSON for the parent; runEdge fills it
// directly.
type runRecord struct {
	SetupS      float64   `json:"setup_s"`
	TickMs      []float64 `json:"tick_ms"`
	RegisterUs  []float64 `json:"register_us"`
	ReadUs      []float64 `json:"read_us"`
	SteadyS     float64   `json:"steady_s"`
	SteadyTicks int       `json:"steady_ticks"`
	Verdicts    int64     `json:"verdicts"`
	// RateWindows holds the verdicts per second of each rateWindow of
	// the steady phase.
	RateWindows []float64 `json:"rate_windows"`
	JPerTick    float64   `json:"j_per_tick"`
	MemMB       float64   `json:"mem_mb"`

	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Texts and Sample carry the sampled tenants' query texts and verdict
	// sequences to the reference check.
	Texts  map[string]string    `json:"texts"`
	Sample map[string][]verdict `json:"sample"`

	// Layers holds the per-layer metrics of a traced run.
	Layers map[string]float64 `json:"layers,omitempty"`
}

const maxFailureNotes = 20

// rateWindow is the length of the windows verdicts_per_s is measured
// over. The reported rate is the median window's, so that a stall of the
// host in one window does not set it.
const rateWindow = time.Second

// rateMeter cuts the steady phase into windows, each closed by the first
// loop iteration to end after a whole multiple of rateWindow since the
// start, and records each window's verdicts per second. Windows hold
// whole iterations, so each rate is exact.
type rateMeter struct {
	next, from time.Time
	verdicts   int64
}

func newRateMeter(start time.Time) *rateMeter {
	return &rateMeter{next: start.Add(rateWindow), from: start}
}

// mark is called at the end of every loop iteration; it closes the
// current window once the iteration has crossed its boundary.
func (m *rateMeter) mark(rec *runRecord) {
	now := time.Now()
	if now.Before(m.next) {
		return
	}
	rec.RateWindows = append(rec.RateWindows, float64(rec.Verdicts-m.verdicts)/now.Sub(m.from).Seconds())
	m.from, m.verdicts = now, rec.Verdicts
	for !m.next.After(now) {
		m.next = m.next.Add(rateWindow)
	}
}

// fail counts one failed operation and keeps its description.
func (r *runRecord) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds another record's operation counts, failures and
// registration latencies to r.
func (r *runRecord) absorb(o *runRecord) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for _, f := range o.Failures {
		if len(r.Failures) < maxFailureNotes {
			r.Failures = append(r.Failures, f)
		}
	}
	r.RegisterUs = append(r.RegisterUs, o.RegisterUs...)
}

// fleetState tracks the tenants the runtime should be serving, in
// registration order, so each tick result can be checked for exactly one
// verdict per due tenant.
type fleetState struct {
	order  []string
	sample []string
	// pos maps each sampled tenant to its index in order; rebuilt lazily
	// after the order changes.
	pos   []int
	dirty bool
	// last holds each sampled tenant's most recent verdict, for checking
	// what a read returns.
	last map[string]verdict
}

func newFleetState(sample []string) *fleetState {
	return &fleetState{sample: sample, dirty: true, last: make(map[string]verdict, len(sample))}
}

func (f *fleetState) add(id string) {
	f.order = append(f.order, id)
	f.dirty = true
}

func (f *fleetState) remove(id string) {
	if i := slices.Index(f.order, id); i >= 0 {
		f.order = slices.Delete(f.order, i, i+1)
		f.dirty = true
	}
}

// oldestUnpinned returns the longest-resident tenant outside the sample.
func (f *fleetState) oldestUnpinned() (string, bool) {
	for _, id := range f.order {
		if !slices.Contains(f.sample, id) {
			return id, true
		}
	}
	return "", false
}

// observe checks one tick result: every resident tenant has exactly one
// error-free verdict and no other tenant has one. It records the sampled
// tenants' verdicts.
func (f *fleetState) observe(rec *runRecord, tr service.TickResult) {
	execs := tr.Executions
	rec.Attempted += int64(len(f.order))
	rec.Verdicts += int64(len(execs))
	for i := range execs {
		if execs[i].Err != "" {
			rec.fail("tick %d: %s: execution error %s", tr.Tick, execs[i].ID, execs[i].Err)
		}
	}
	inOrder := len(execs) == len(f.order)
	for i := 0; inOrder && i < len(execs); i++ {
		inOrder = execs[i].ID == f.order[i]
	}
	if inOrder {
		if f.dirty {
			f.pos = f.pos[:0]
			for _, id := range f.sample {
				f.pos = append(f.pos, slices.Index(f.order, id))
			}
			f.dirty = false
		}
		for k, id := range f.sample {
			if p := f.pos[k]; p >= 0 {
				f.record(rec, id, tr.Tick, execs[p].Value)
			}
		}
		return
	}
	// Slow path: the executions are not in registration order, so match
	// them by id.
	seen := make(map[string]int, len(execs))
	for i := range execs {
		seen[execs[i].ID]++
	}
	resident := make(map[string]bool, len(f.order))
	for _, id := range f.order {
		resident[id] = true
		if n := seen[id]; n != 1 {
			rec.fail("tick %d: tenant %s got %d verdicts, want 1", tr.Tick, id, n)
		}
	}
	for id := range seen {
		if !resident[id] {
			rec.fail("tick %d: verdict for tenant %s, which is not registered", tr.Tick, id)
		}
	}
	for i := range execs {
		if slices.Contains(f.sample, execs[i].ID) {
			f.record(rec, execs[i].ID, tr.Tick, execs[i].Value)
		}
	}
}

func (f *fleetState) record(rec *runRecord, id string, tick int64, v bool) {
	rec.Sample[id] = append(rec.Sample[id], verdict{Tick: tick, Value: v})
	f.last[id] = verdict{Tick: tick, Value: v}
}

// checkRead verifies a read of a sampled tenant returned its latest
// verdict.
func (f *fleetState) checkRead(rec *runRecord, id string, got []service.Execution) {
	want, ok := f.last[id]
	switch {
	case !ok:
		rec.fail("read %s: no verdict recorded yet", id)
	case len(got) != 1:
		rec.fail("read %s: %d executions, want 1", id, len(got))
	case got[0].Tick != want.Tick || got[0].Value != want.Value:
		rec.fail("read %s: got tick %d value %v, want tick %d value %v",
			id, got[0].Tick, got[0].Value, want.Tick, want.Value)
	}
}
