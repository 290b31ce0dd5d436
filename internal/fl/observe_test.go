package fl

import "testing"

// recordingBufferObserver captures every BufferEvent in order.
type recordingBufferObserver struct {
	events []BufferEvent
}

func (r *recordingBufferObserver) ObserveBuffer(ev BufferEvent) {
	r.events = append(r.events, ev)
}

func (r *recordingBufferObserver) last(t *testing.T) BufferEvent {
	t.Helper()
	if len(r.events) == 0 {
		t.Fatal("no buffer events recorded")
	}
	return r.events[len(r.events)-1]
}

func mkUpdate(client, base, staleness int) *Update {
	return &Update{
		ClientID:    client,
		BaseVersion: base,
		Staleness:   staleness,
		Delta:       []float64{1, 2},
		NumSamples:  1,
	}
}

func TestBufferObserverAddAndStale(t *testing.T) {
	b, err := NewBuffer(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBufferObserver{}
	b.SetObserver(rec)

	if !b.Add(mkUpdate(0, 0, 1)) {
		t.Fatal("fresh update rejected")
	}
	ev := rec.last(t)
	if ev.Added != 1 || ev.Pending != 1 || ev.Fresh != 1 || ev.Ready {
		t.Fatalf("add event: %+v", ev)
	}

	if b.Add(mkUpdate(1, 0, 10)) {
		t.Fatal("stale update accepted")
	}
	ev = rec.last(t)
	if ev.DroppedStale != 1 || ev.Added != 0 || ev.Pending != 1 {
		t.Fatalf("stale event: %+v", ev)
	}

	b.Add(mkUpdate(2, 0, 0))
	ev = rec.last(t)
	if !ev.Ready || ev.Pending != 2 {
		t.Fatalf("ready event: %+v", ev)
	}
}

func TestBufferObserverDrainRequeueShed(t *testing.T) {
	b, err := NewBuffer(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBufferObserver{}
	b.SetObserver(rec)

	b.Add(mkUpdate(0, 0, 0))
	b.Add(mkUpdate(1, 1, 0))
	drained := b.Drain()
	ev := rec.last(t)
	if ev.Drained != 2 || ev.Pending != 0 || ev.Fresh != 0 {
		t.Fatalf("drain event: %+v", ev)
	}

	// One requeued survivor and one pushed past the limit: at version 6
	// the base-0 update reads staleness 6 > 5.
	b.RequeueAt(drained, 6)
	ev = rec.last(t)
	if ev.Requeued != 1 || ev.DroppedStale != 1 || ev.Pending != 1 {
		t.Fatalf("requeue event: %+v", ev)
	}

	b.Add(mkUpdate(2, 2, 0))
	shed := b.Shed(1)
	if len(shed) != 1 {
		t.Fatalf("shed %d updates", len(shed))
	}
	ev = rec.last(t)
	if ev.Shed != 1 || ev.Pending != 1 {
		t.Fatalf("shed event: %+v", ev)
	}
}

func TestBufferObserverRequeueAt(t *testing.T) {
	b, err := NewBuffer(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBufferObserver{}
	b.SetObserver(rec)

	updates := []*Update{mkUpdate(0, 0, 0), mkUpdate(1, 4, 0)}
	dropped := b.RequeueAt(updates, 5)
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (staleness 5 > limit 3)", dropped)
	}
	ev := rec.last(t)
	if ev.Requeued != 1 || ev.DroppedStale != 1 {
		t.Fatalf("requeueAt event: %+v", ev)
	}
}

func TestBufferObserverRestoreAndNilSafety(t *testing.T) {
	b, err := NewBuffer(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No observer: mutations must not panic.
	b.Add(mkUpdate(0, 0, 0))
	b.Add(mkUpdate(1, 0, 0))
	snap := b.Snapshot()

	b2, err := NewBuffer(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingBufferObserver{}
	b2.SetObserver(rec)
	b2.Restore(snap)
	ev := rec.last(t)
	if ev.Added != 2 || ev.Pending != 2 || !ev.Ready {
		t.Fatalf("restore event: %+v", ev)
	}
}

// The observer must be purely observational: an attached observer
// changes no buffer behavior or state transitions.
func TestBufferObserverNeutrality(t *testing.T) {
	run := func(obs BufferObserver) (int, int, int, bool) {
		b, err := NewBuffer(3, 4)
		if err != nil {
			t.Fatal(err)
		}
		b.SetObserver(obs)
		for i := 0; i < 6; i++ {
			b.Add(mkUpdate(i, i%3, i%5))
		}
		b.Shed(1)
		drained := b.Drain()
		b.RequeueAt(drained[:2], 5)
		received, stale := b.Stats()
		return received, stale, b.Len(), b.Ready()
	}
	r1, s1, l1, rdy1 := run(nil)
	r2, s2, l2, rdy2 := run(&recordingBufferObserver{})
	if r1 != r2 || s1 != s2 || l1 != l2 || rdy1 != rdy2 {
		t.Fatalf("observer changed behavior: (%d %d %d %v) vs (%d %d %d %v)",
			r1, s1, l1, rdy1, r2, s2, l2, rdy2)
	}
}
