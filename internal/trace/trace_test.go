package trace

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestEstimatePrior(t *testing.T) {
	s := NewStore()
	p, n := s.Estimate("A < 3")
	if p != 0.5 || n != 0 {
		t.Errorf("prior estimate = %v, %d", p, n)
	}
}

func TestEstimateConverges(t *testing.T) {
	s := NewStore()
	for i := 0; i < 700; i++ {
		s.Record("A < 3", true)
	}
	for i := 0; i < 300; i++ {
		s.Record("A < 3", false)
	}
	p, n := s.Estimate("A < 3")
	if n != 1000 {
		t.Errorf("n = %d", n)
	}
	if math.Abs(p-0.7) > 0.01 {
		t.Errorf("estimate = %v, want ~0.7", p)
	}
	// Smoothing keeps estimates strictly inside (0,1).
	s2 := NewStore()
	s2.Record("B > 0", true)
	p2, _ := s2.Estimate("B > 0")
	if p2 <= 0.5 || p2 >= 1 {
		t.Errorf("one success estimate = %v, want in (0.5, 1)", p2)
	}
}

func TestStatsFor(t *testing.T) {
	s := NewStore()
	s.Record("x", true)
	s.Record("x", false)
	s.Record("x", true)
	st := s.StatsFor("x")
	if st.Evals != 3 || st.Successes != 2 {
		t.Errorf("stats = %+v", st)
	}
	if s.StatsFor("y") != (Stats{}) {
		t.Error("unknown predicate should have zero stats")
	}
}

func TestPredicatesSorted(t *testing.T) {
	s := NewStore()
	s.Record("b", true)
	s.Record("a", false)
	s.Record("c", true)
	got := s.Predicates()
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("Predicates = %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	s.Record("A < 3", true)
	s.Record("A < 3", false)
	s.Record("B > 9", true)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.StatsFor("A < 3") != (Stats{Evals: 2, Successes: 1}) {
		t.Errorf("loaded stats = %+v", s2.StatsFor("A < 3"))
	}
	p1, _ := s.Estimate("B > 9")
	p2, _ := s2.Estimate("B > 9")
	if p1 != p2 {
		t.Error("estimates differ after round trip")
	}
}

func TestLoadRejectsInconsistent(t *testing.T) {
	s := NewStore()
	if err := s.Load(strings.NewReader(`{"x": {"evals": 1, "successes": 5}}`)); err == nil {
		t.Error("successes > evals accepted")
	}
	if err := s.Load(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := s.Load(strings.NewReader(`null`)); err != nil {
		t.Errorf("null store should load as empty: %v", err)
	}
	if s.Len() != 0 {
		t.Error("null load should clear")
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.Record("q", true)
	path := filepath.Join(t.TempDir(), "traces.json")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if s2.StatsFor("q").Evals != 1 {
		t.Error("file round trip lost data")
	}
	if err := s2.LoadFile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestConcurrentRecord(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Record("hot", w%2 == 0)
			}
		}(w)
	}
	wg.Wait()
	if st := s.StatsFor("hot"); st.Evals != 8000 || st.Successes != 4000 {
		t.Errorf("stats = %+v", st)
	}
}

// TestOldestKeysEvictsLeastRecentlyStamped pins the bounded-state
// eviction policy the windowed estimator uses: nothing while the cap
// holds, then the oldest stamps first, over-evicting by cap/16.
func TestOldestKeysEvictsLeastRecentlyStamped(t *testing.T) {
	stamps := map[string]int64{}
	for i := 0; i < 32; i++ {
		stamps[fmt.Sprintf("p%02d", i)] = int64(i)
	}
	if got := OldestKeys(stamps, 32); got != nil {
		t.Errorf("at the cap: evict %v, want nothing", got)
	}
	if got := OldestKeys(stamps, 0); got != nil {
		t.Errorf("cap 0 (unbounded): evict %v, want nothing", got)
	}
	// Cap 16 over 32 keys: 16 over the bound plus 16/16 = 1 slack.
	got := OldestKeys(stamps, 16)
	if len(got) != 17 {
		t.Fatalf("evicted %d keys, want 17", len(got))
	}
	for i, key := range got {
		if want := fmt.Sprintf("p%02d", i); key != want {
			t.Errorf("eviction %d = %q, want %q (oldest first)", i, key, want)
		}
	}
}
