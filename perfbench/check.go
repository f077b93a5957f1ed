package main

import (
	"fmt"
	"sort"

	"paotr/internal/service"
)

// checkReference replays each sampled tenant alone on a fresh
// single-query service over the same registry seed and compares the
// verdict it reaches at every tick the benchmark recorded for that
// tenant. It returns one note per disagreeing tenant.
func checkReference(s spec, seed uint64, texts map[string]string, got map[string][]verdict) []string {
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var notes []string
	for _, id := range ids {
		if err := replay(s, seed, id, texts[id], got[id]); err != nil {
			notes = append(notes, err.Error())
		}
	}
	return notes
}

// replay runs one tenant on its own service for as many ticks as its
// recorded verdicts span and compares them.
func replay(s spec, seed uint64, id, text string, got []verdict) error {
	if len(got) == 0 {
		return nil
	}
	ref := service.New(s.registry(seed))
	if err := ref.Register(id, text); err != nil {
		return fmt.Errorf("reference %s: %w", id, err)
	}
	want := make(map[int64]bool, len(got))
	last := got[len(got)-1].Tick
	for t := int64(1); t <= last; t++ {
		res := ref.Tick()
		for _, e := range res.Executions {
			want[res.Tick] = e.Value
		}
	}
	for _, v := range got {
		w, ok := want[v.Tick]
		if !ok {
			return fmt.Errorf("reference %s: no verdict at tick %d", id, v.Tick)
		}
		if w != v.Value {
			return fmt.Errorf("reference %s: tick %d verdict %v, reference %v", id, v.Tick, v.Value, w)
		}
	}
	return nil
}
