package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
)

// dist summarises one latency sample set: the median and the tail. The
// tail is taken block by block: the samples, in the order they were
// taken, are cut into consecutive blocks of at least tailBlock samples;
// each block's tail is its highest percentile that still has tailBeyond
// samples above it; the reported tail is the median of the block tails.
// One tail over a whole run would sit past p99.8, where a handful of
// scheduler stalls on a shared host decide it.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile each block tail is taken at
	Blocks  int
}

const (
	tailBeyond = 10
	tailBlock  = 200
)

func summarise(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	d := dist{N: n, P50: median(xs), Blocks: max(1, n/tailBlock)}
	tails := make([]float64, d.Blocks)
	for b := range tails {
		blk := append([]float64(nil), xs[b*n/d.Blocks:(b+1)*n/d.Blocks]...)
		sort.Float64s(blk)
		tails[b], d.TailPct = blockTail(blk)
	}
	d.Tail = median(tails)
	return d
}

// blockTail returns the highest percentile of the sorted block s that
// still has tailBeyond samples above it, and the percentile. A block too
// small to leave that many beyond its p90 leaves a tenth of its samples
// beyond instead, so its tail never falls below p90.
func blockTail(s []float64) (float64, float64) {
	n := len(s)
	beyond := min(tailBeyond, n/10)
	return s[n-beyond-1], 100 * float64(n-beyond) / float64(n)
}

// median of xs (any order; xs is not modified).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := xs
	if !sort.Float64sAreSorted(s) {
		s = append([]float64(nil), xs...)
		sort.Float64s(s)
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// peakRSSMB reads a process's peak resident set (VmHWM) from
// /proc/<pid>/status, pid being a number or "self". The kernel's
// rusage figure for a child is no substitute: a child started by vfork
// inherits the parent's high-water mark.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak memory: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 3 && string(f[0]) == "VmHWM:" {
			kb, err := strconv.ParseFloat(string(f[1]), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of process %s: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
