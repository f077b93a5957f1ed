// Command perfbench is the repository's benchmark: it serves one named
// workload, driven by a seed, and reports the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as one JSON line, after checking
// that every verdict is right.
//
// Usage (run.sh builds the binaries first):
//
//	perfbench -workload twins -seed 1 -seconds 20 -trace 0 -paotrserve .bench_build/paotrserve
//
// Each in-process serving run is a child process of this one, so its
// peak resident memory is its own; the edge workload serves from a
// paotrserve child instead. The last line of standard output is the
// result; the lines before it repeat every metric with its unit and
// sample count.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// runBudget bounds one invocation, children included.
const runBudget = 170 * time.Second

// edgeClientHeap is the heap size at which the edge client collects.
const edgeClientHeap = 256 << 20

func main() {
	var (
		workload   = flag.String("workload", "", "workload name: twins, distinct, churn or edge")
		seed       = flag.Uint64("seed", 1, "seed the fleet, streams and op schedule are drawn from")
		seconds    = flag.Int("seconds", 20, "length of the measured steady phase in seconds")
		trace      = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		child      = flag.Bool("child", false, "serve one in-process run and print its record; used by the parent")
		paotrserve = flag.String("paotrserve", "", "paotrserve binary the edge workload serves from")
	)
	flag.Parse()
	s, err := specByName(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	traced := *trace == 1
	if *child {
		rec := runInProcess(s, *seed, *seconds, traced)
		if rec.MemMB, err = peakRSSMB("self"); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if s.edge && *paotrserve == "" {
		fmt.Fprintln(os.Stderr, "perfbench: the edge workload needs -paotrserve")
		os.Exit(2)
	}
	if s.edge {
		// This process is the edge client. Its garbage, mostly decoded
		// tick bodies, is collected only near a fixed heap size, so that
		// its pauses rarely fall between a request and its response.
		debug.SetGCPercent(-1)
		debug.SetMemoryLimit(edgeClientHeap)
	}
	// A signal or the budget cancels ctx, which kills every child.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	res, err := measure(ctx, s, *seed, *seconds, traced, *paotrserve)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the benchmark's output line, plus the sample counts and
// notes printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	rows     []row
	failures []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table.
type row struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// measure serves the workload runsPerSeed times, each in its own
// process on its own fleet drawn from the seed and for an equal share of
// the steady phase, checks every run against the reference, and pools
// the samples. A traced run serves once, for the whole steady phase.
func measure(ctx context.Context, s spec, seed uint64, seconds int, traced bool, bin string) (*result, error) {
	runs, per := runsPerSeed, max(1, seconds/runsPerSeed)
	if traced {
		runs, per = 1, seconds
	}
	var recs []*runRecord
	for k := 0; k < runs; k++ {
		fleetSeed := seed*runsPerSeed + uint64(k)
		var rec *runRecord
		var err error
		if s.edge {
			rec, err = runEdge(ctx, s, fleetSeed, per, traced, bin)
		} else {
			rec, err = runChild(ctx, s, fleetSeed, per, traced)
		}
		if err != nil {
			return nil, err
		}
		verify(s, fleetSeed, rec)
		recs = append(recs, rec)
	}
	return assemble(recs, traced), nil
}

// verify runs the reference check on the sampled tenants: each must have
// verdicts, and they must match the single-query reference.
func verify(s spec, seed uint64, rec *runRecord) {
	for id := range rec.Texts {
		rec.Attempted++
		if len(rec.Sample[id]) == 0 {
			rec.fail("sampled tenant %s has no verdicts", id)
		}
	}
	for _, note := range checkReference(s, seed, rec.Texts, rec.Sample) {
		rec.fail("%s", note)
	}
}

// runChild serves one in-process run in a child process and returns its
// record.
func runChild(ctx context.Context, s spec, seed uint64, seconds int, traced bool) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self, "-child", "-workload", s.name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("serving %s with seed %d: %w", s.name, seed, err)
	}
	var rec runRecord
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("decoding the record of %s with seed %d: %w", s.name, seed, err)
	}
	return &rec, nil
}

// assemble pools the runs' samples into the reported metrics.
func assemble(recs []*runRecord, traced bool) *result {
	var all runRecord
	var setups, mems []float64
	var steadyS, paid float64
	for _, r := range recs {
		all.absorb(r)
		all.TickMs = append(all.TickMs, r.TickMs...)
		all.ReadUs = append(all.ReadUs, r.ReadUs...)
		all.RateWindows = append(all.RateWindows, r.RateWindows...)
		all.Verdicts += r.Verdicts
		all.SteadyTicks += r.SteadyTicks
		setups = append(setups, r.SetupS)
		mems = append(mems, r.MemMB)
		steadyS += r.SteadyS
		paid += r.JPerTick * float64(r.SteadyTicks)
	}
	res := &result{
		Correct:   all.Failed == 0,
		Attempted: max(1, all.Attempted),
		Failed:    all.Failed,
		Metrics:   map[string]metric{},
		failures:  all.Failures,
	}
	if traced {
		for _, d := range perLayer {
			res.add(d, recs[0].Layers[d.name], recs[0].SteadyTicks, "")
		}
		return res
	}
	tick, reg, read := summarise(all.TickMs), summarise(all.RegisterUs), summarise(all.ReadUs)
	tailNote := func(d dist) string {
		return fmt.Sprintf("median of %d block tails at p%.2f", d.Blocks, d.TailPct)
	}
	runs := len(recs)
	values := map[string]struct {
		v    float64
		n    int
		note string
	}{
		"setup_s":          {median(setups), runs, fmt.Sprintf("median of %d set-ups", runs)},
		"tick_p50_ms":      {tick.P50, tick.N, "p50"},
		"tick_tail_ms":     {tick.Tail, tick.N, tailNote(tick)},
		"verdicts_per_s":   {median(all.RateWindows), len(all.RateWindows), fmt.Sprintf("median of %.0f s windows; %d verdicts in %.2f s", rateWindow.Seconds(), all.Verdicts, steadyS)},
		"register_p50_us":  {reg.P50, reg.N, "p50"},
		"register_tail_us": {reg.Tail, reg.N, tailNote(reg)},
		"read_p50_us":      {read.P50, read.N, "p50"},
		"read_tail_us":     {read.Tail, read.N, tailNote(read)},
		"j_per_tick":       {ratio(paid, float64(all.SteadyTicks)), all.SteadyTicks, "paid acquisition cost per steady tick"},
		"mem_mb":           {median(mems), runs, fmt.Sprintf("median peak RSS of %d serving processes", runs)},
		"ok_frac":          {1 - ratio(float64(all.Failed), float64(res.Attempted)), int(res.Attempted), fmt.Sprintf("%d of %d operations failed", all.Failed, res.Attempted)},
	}
	for _, d := range endToEnd {
		v := values[d.name]
		res.add(d, v.v, v.n, v.note)
	}
	return res
}

func (r *result) add(d metricDef, v float64, n int, note string) {
	r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	r.rows = append(r.rows, row{name: d.name, unit: d.unit, value: v, n: n, note: note})
}

// print writes the table and the result line to out and the failures to
// errw. It prints nothing to out when the result cannot be encoded.
func (r *result) print(out, errw io.Writer) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	for _, f := range r.failures {
		fmt.Fprintf(errw, "FAIL %s\n", f)
	}
	fmt.Fprintf(out, "%-32s %16s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, x := range r.rows {
		fmt.Fprintf(out, "%-32s %16.6g %-6s %8d  %s\n", x.name, x.value, x.unit, x.n, x.note)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
