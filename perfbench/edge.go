package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"time"

	"paotr/internal/obs"
	"paotr/internal/service"
)

// edgeServer is one paotrserve process started with default flags and
// the client connection that drives it.
type edgeServer struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	stderr bytes.Buffer
}

// startEdge starts paotrserve on a free local port and waits until it
// answers /healthz.
func startEdge(ctx context.Context, bin string) (*edgeServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	e := &edgeServer{
		base: "http://" + addr,
		// One connection, kept alive: the workload's single client.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	e.cmd = exec.CommandContext(ctx, bin, "-addr", addr)
	e.cmd.Stderr = &e.stderr
	dieWithParent(e.cmd)
	if err := e.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting paotrserve: %w", err)
	}
	for deadline := time.Now().Add(20 * time.Second); ctx.Err() == nil; {
		resp, err := e.client.Get(e.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return e, nil
			}
		}
		if time.Now().After(deadline) {
			e.stop()
			return nil, fmt.Errorf("paotrserve did not come up on %s: %v\n%s", addr, err, e.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	e.stop()
	return nil, fmt.Errorf("starting paotrserve: %w", ctx.Err())
}

// stop reads the server's peak resident memory in MB, then kills it and
// waits for it.
func (e *edgeServer) stop() (float64, error) {
	e.client.CloseIdleConnections()
	mb, err := peakRSSMB(strconv.Itoa(e.cmd.Process.Pid))
	_ = e.cmd.Process.Kill() // an already-exited process is fine: Wait reports it
	_ = e.cmd.Wait()         // killed on purpose, so the exit status is expected
	return mb, err
}

// do sends one request and returns the status and the body.
func (e *edgeServer) do(method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// edgeRun drives one paotrserve through the edge workload.
type edgeRun struct {
	e   *edgeServer
	rec *runRecord
	acc *layerAcc
	fs  *fleetState
}

// call sends a request, counts it as attempted, and counts a transport
// error or non-2xx status as failed. It returns the body on success.
func (r *edgeRun) call(method, path string, body any) ([]byte, bool) {
	r.rec.Attempted++
	status, b, err := r.e.do(method, path, body)
	if err != nil {
		r.rec.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	if status/100 != 2 {
		r.acc.non2xx++
		r.rec.fail("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
		return nil, false
	}
	return b, true
}

func (r *edgeRun) register(x reg) {
	if _, ok := r.call(http.MethodPost, "/queries", map[string]string{"id": x.ID, "query": x.Text}); ok {
		r.fs.add(x.ID)
	}
}

// postTick posts one tick and returns the body, the round trip and
// whether the request succeeded.
func (r *edgeRun) postTick() ([]byte, time.Duration, bool) {
	t := time.Now()
	b, ok := r.call(http.MethodPost, "/tick", map[string]int{"steps": 1})
	return b, time.Since(t), ok
}

// checkTick decodes a tick body and checks its verdicts.
func (r *edgeRun) checkTick(b []byte) (service.TickResult, bool) {
	var res []service.TickResult
	if err := json.Unmarshal(b, &res); err != nil || len(res) != 1 {
		r.rec.fail("POST /tick: decoding %d results: %v", len(res), err)
		return service.TickResult{}, false
	}
	r.fs.observe(r.rec, res[0])
	return res[0], true
}

func (r *edgeRun) metrics() service.Metrics {
	var m service.Metrics
	if b, ok := r.call(http.MethodGet, "/metrics", nil); ok {
		if err := json.Unmarshal(b, &m); err != nil {
			r.rec.fail("GET /metrics: %v", err)
		}
	}
	return m
}

func (r *edgeRun) setTraceSampling(period int) {
	r.call(http.MethodPut, "/debug/trace-sample", map[string]int{"period": period})
}

// traces reads a traced tick's traces back from the server.
func (r *edgeRun) traces(tick int64) []obs.TickTrace {
	var body struct {
		Traces []obs.TickTrace `json:"traces"`
	}
	if b, ok := r.call(http.MethodGet, "/debug/ticks/"+strconv.FormatInt(tick, 10), nil); ok {
		if err := json.Unmarshal(b, &body); err != nil {
			r.rec.fail("GET /debug/ticks/%d: %v", tick, err)
		}
	}
	return body.Traces
}

// addEdgeTick records a traced tick's edge overhead: the round trip
// beyond the server's own tick time.
func (r *edgeRun) addEdgeTick(tick int64, rt time.Duration, bodyBytes int) {
	tr := r.traces(tick)
	if len(tr) != 1 {
		r.rec.fail("tick %d: %d traces, want 1", tick, len(tr))
		return
	}
	total := time.Duration(tr[0].TotalNs)
	r.acc.addTick(r.rec, tick, tr, 1, total)
	r.acc.edgeMs = append(r.acc.edgeMs, ms((rt - total).Nanoseconds()))
	r.acc.bodyKB = append(r.acc.bodyKB, float64(bodyBytes)/1024)
}

// runEdge serves the workload from a paotrserve process over HTTP: POST
// /queries for the initial fleet and the first POST /tick (set-up), then
// one connection looping over POST /tick, GET /results for the sample,
// and a DELETE plus POST pair every edgeChurnTicks ticks.
func runEdge(ctx context.Context, s spec, seed uint64, seconds int, traced bool, bin string) (*runRecord, error) {
	fleet := s.initialFleet(seed)
	sample := s.sample(fleet, seed)
	e, err := startEdge(ctx, bin)
	if err != nil {
		return nil, err
	}
	r := &edgeRun{e: e, rec: newRecord(fleet, sample), acc: &layerAcc{}, fs: newFleetState(sample)}
	rec, acc := r.rec, r.acc
	if traced {
		r.setTraceSampling(1)
	}

	start := time.Now()
	for _, x := range fleet {
		if ctx.Err() != nil {
			break
		}
		r.register(x)
	}
	body, rt, ok := r.postTick()
	rec.SetupS = time.Since(start).Seconds()
	if ok {
		if first, ok := r.checkTick(body); ok && traced {
			r.addEdgeTick(first.Tick, rt, len(body))
		}
	}

	sc := s.opSchedule(seed, seconds)
	m0 := r.metrics()
	rec.Verdicts = 0 // verdicts_per_s counts the steady phase only
	steadyStart := time.Now()
	deadline := steadyStart.Add(time.Duration(seconds) * time.Second)
	rate := newRateMeter(steadyStart)
	next := 0
	for i := 1; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		traceThis := traced && (i/traceBlock)%2 == 0
		if traceThis {
			r.setTraceSampling(1)
		} else if traced {
			r.setTraceSampling(0)
		}
		body, rt, ok := r.postTick()
		rec.SteadyTicks++
		rec.TickMs = append(rec.TickMs, ms(rt.Nanoseconds()))
		// The sample is read right after the tick returns; the client
		// decodes and checks the tick body and the reads afterwards.
		reads := make([][]byte, len(sample))
		for k, id := range sample {
			t := time.Now()
			reads[k], _ = r.call(http.MethodGet, "/results/"+url.PathEscape(id)+"?n=1", nil)
			rec.ReadUs = append(rec.ReadUs, us(time.Since(t)))
		}
		if ok {
			if res, ok := r.checkTick(body); ok && traced {
				if traceThis {
					acc.tickTracedMs = append(acc.tickTracedMs, ms(rt.Nanoseconds()))
					r.addEdgeTick(res.Tick, rt, len(body))
				} else {
					acc.tickPlainMs = append(acc.tickPlainMs, ms(rt.Nanoseconds()))
				}
			}
		}
		for k, id := range sample {
			if reads[k] == nil {
				continue // the failed request is already counted
			}
			var got []service.Execution
			if err := json.Unmarshal(reads[k], &got); err != nil {
				rec.fail("GET /results/%s: %v", id, err)
				continue
			}
			r.fs.checkRead(rec, id, got)
		}
		if i%s.edgeChurnTicks == 0 && next < len(sc.arrivals) {
			if victim, ok := r.fs.oldestUnpinned(); ok {
				t := time.Now()
				if _, ok := r.call(http.MethodDelete, "/queries/"+url.PathEscape(victim), nil); ok {
					r.fs.remove(victim)
				}
				acc.unregisterUs = append(acc.unregisterUs, us(time.Since(t)))
			}
			t := time.Now()
			r.register(sc.arrivals[next])
			rec.RegisterUs = append(rec.RegisterUs, us(time.Since(t)))
			next++
		}
		rate.mark(rec)
	}
	rec.SteadyS = time.Since(steadyStart).Seconds()
	m1 := r.metrics()
	finish(rec, m0, m1)
	if traced {
		acc.compileUs = timeCompiles(s, seed, fleet, sc.arrivals[:next])
		rec.Layers = acc.perLayer(m0, m1, rec.SteadyTicks)
	}
	if rec.MemMB, err = e.stop(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serving edge: %w", err)
	}
	return rec, nil
}
