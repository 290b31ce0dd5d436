package fl

import (
	"errors"
	"strings"
	"testing"
)

// scriptedFilter returns fixed verdicts, or fails or panics on demand.
type scriptedFilter struct {
	decisions []Decision
	err       error
	panics    bool
}

func (f *scriptedFilter) Filter(updates []*Update, round int) (FilterResult, error) {
	if f.panics {
		panic("scripted filter panic")
	}
	return FilterResult{Decisions: f.decisions}, f.err
}

func (f *scriptedFilter) Name() string { return "scripted" }

// observingFilter is a scriptedFilter that records ObserveRound calls.
type observingFilter struct {
	scriptedFilter
	rounds   []int
	globals  [][]float64
	accepted []int
}

func (f *observingFilter) ObserveRound(round int, global []float64, accepted []*Update) {
	f.rounds = append(f.rounds, round)
	f.globals = append(f.globals, global)
	f.accepted = append(f.accepted, len(accepted))
}

type panickingCombiner struct{}

func (panickingCombiner) Combine([]*Update, AggregatorConfig) ([]float64, error) {
	panic("scripted combiner panic")
}
func (panickingCombiner) Name() string { return "panicky" }

func newTestEngine(t *testing.T, limit int, f Filter, c Combiner, arena *Arena) (*Engine, *Buffer) {
	t.Helper()
	b, err := NewBuffer(2, limit)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine([]float64{0}, b, f, c, AggregatorConfig{}, arena), b
}

func oneDim(client, base int, v float64) *Update {
	return &Update{ClientID: client, BaseVersion: base, Delta: []float64{v}, NumSamples: 1}
}

// TestEngineRound walks one round through every phase: drain-time
// staleness, the buffered-then-arrivals order, commit of the mean delta,
// requeue of the deferral aged by one, and the observer seeing the
// committed model.
func TestEngineRound(t *testing.T) {
	f := &observingFilter{scriptedFilter: scriptedFilter{decisions: []Decision{Accept, Defer, Reject, Accept}}}
	e, b := newTestEngine(t, 0, f, nil, nil)
	e.Version = 3
	b.Add(oneDim(0, 3, 2))
	b.Add(oneDim(1, 1, 5))
	rd := e.Drain(oneDim(2, 0, 9), oneDim(3, 2, 4))
	if rd.Number != 4 || len(rd.Updates) != 4 {
		t.Fatalf("drained round %d with %d updates, want round 4 with 4", rd.Number, len(rd.Updates))
	}
	for i, want := range []int{0, 2, 3, 1} {
		if got := rd.Updates[i].Staleness; got != want {
			t.Errorf("update %d staleness = %d, want %d", i, got, want)
		}
	}
	e.Decide(rd)
	if len(rd.Errs) != 0 || len(rd.Accepted) != 2 || len(rd.Deferred) != 1 || len(rd.Rejected) != 1 {
		t.Fatalf("decide: errs %v, split %d/%d/%d", rd.Errs, len(rd.Accepted), len(rd.Deferred), len(rd.Rejected))
	}
	e.Commit(rd)
	if e.Version != 4 || e.Global[0] != 3 {
		t.Errorf("after commit: version %d global %v, want 4 and the mean 3", e.Version, e.Global)
	}
	requeued := b.Drain()
	if len(requeued) != 1 || requeued[0].ClientID != 1 || requeued[0].Staleness != 3 {
		t.Errorf("requeued %+v, want client 1 aged to staleness 3", requeued)
	}
	if err := e.Retire(rd, false); err != nil {
		t.Fatal(err)
	}
	if len(f.rounds) != 1 || f.rounds[0] != 4 || f.globals[0][0] != 3 || f.accepted[0] != 2 {
		t.Errorf("observer saw rounds %v globals %v accepted %v", f.rounds, f.globals, f.accepted)
	}
	e.Global[0] = 7
	if f.globals[0][0] != 3 {
		t.Error("observer's global aliases the engine's live model")
	}
}

// TestEngineFilterFallback: a filter that errors, panics or returns a
// mis-sized verdict costs the round its screening, not its updates.
func TestEngineFilterFallback(t *testing.T) {
	for name, f := range map[string]*scriptedFilter{
		"error":     {err: errors.New("boom")},
		"panic":     {panics: true},
		"mis-sized": {decisions: []Decision{Reject}},
	} {
		e, b := newTestEngine(t, 0, f, nil, nil)
		b.Add(oneDim(0, 0, 1))
		b.Add(oneDim(1, 0, 3))
		rd := e.Drain()
		e.Decide(rd)
		if len(rd.Accepted) != 2 || len(rd.Errs) != 1 {
			t.Errorf("%s: accepted %d with errs %v, want 2 and one error", name, len(rd.Accepted), rd.Errs)
		}
		if wantPanics := map[bool]int{true: 1}[f.panics]; rd.Panics != wantPanics {
			t.Errorf("%s: %d panics, want %d", name, rd.Panics, wantPanics)
		}
		e.Commit(rd)
		if e.Global[0] != 2 {
			t.Errorf("%s: global %v, want the accept-all mean 2", name, e.Global)
		}
	}
}

// TestEngineCombinerPanic: a panicking combiner loses the delta but the
// round still commits and advances the version.
func TestEngineCombinerPanic(t *testing.T) {
	e, b := newTestEngine(t, 0, Passthrough{}, panickingCombiner{}, nil)
	b.Add(oneDim(0, 0, 1))
	rd := e.Drain()
	e.Decide(rd)
	if rd.Delta != nil || rd.Panics != 1 || len(rd.Errs) != 1 || !strings.Contains(rd.Errs[0].Error(), "combiner") {
		t.Fatalf("delta %v, panics %d, errs %v", rd.Delta, rd.Panics, rd.Errs)
	}
	e.Commit(rd)
	if e.Version != 1 || e.Global[0] != 0 {
		t.Errorf("version %d global %v, want 1 and untouched", e.Version, e.Global)
	}
}

// TestEngineEmptyRoundAndStaleDrop: an empty round skips the filter yet
// commits, and deferrals requeued past the limit are counted.
func TestEngineEmptyRoundAndStaleDrop(t *testing.T) {
	f := &scriptedFilter{panics: true}
	e, _ := newTestEngine(t, 1, f, nil, nil)
	rd := e.Drain()
	e.Decide(rd)
	e.Commit(rd)
	if len(rd.Errs) != 0 || e.Version != 1 {
		t.Fatalf("empty round: errs %v, version %d", rd.Errs, e.Version)
	}

	f.panics, f.decisions = false, []Decision{Defer, Defer}
	rd = e.Drain(oneDim(0, 1, 1), oneDim(1, 0, 1))
	e.Decide(rd)
	e.Commit(rd)
	if rd.DroppedStale != 1 {
		t.Errorf("dropped %d stale deferrals, want 1 (staleness 2 > limit 1)", rd.DroppedStale)
	}
}

// TestEngineRetireRecycles: Retire returns rejected updates to the arena,
// and accepted ones unless the caller keeps them.
func TestEngineRetireRecycles(t *testing.T) {
	for _, keep := range []bool{false, true} {
		arena := NewArena(1)
		f := &scriptedFilter{decisions: []Decision{Accept, Reject, Defer}}
		e, _ := newTestEngine(t, 0, f, nil, arena)
		var in []*Update
		for i := 0; i < 3; i++ {
			u := arena.GetUpdate()
			u.ClientID, u.Delta, u.NumSamples = i, arena.GetVec(), 1
			u.Delta[0] = 1
			in = append(in, u)
		}
		rd := e.Drain(in...)
		e.Decide(rd)
		e.Commit(rd)
		if err := e.Retire(rd, keep); err != nil {
			t.Fatal(err)
		}
		want := int64(2)
		if keep {
			want = 1
		}
		if got := arena.Stats().UpdatePuts; got != want {
			t.Errorf("keep=%v: %d updates recycled, want %d", keep, got, want)
		}
	}
}
