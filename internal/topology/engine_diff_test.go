package topology

import (
	"bytes"
	"math"
	"net"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/sim"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// batchRecorder records every batch the simulator's engine hands its
// filter, then delegates to AsyncFilter.
type batchRecorder struct {
	*core.AsyncFilter
	batches [][]fl.Update
	results [][]fl.Decision
}

func (r *batchRecorder) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	batch := make([]fl.Update, len(updates))
	for i, u := range updates {
		batch[i] = *fl.CloneUpdate(u)
	}
	res, err := r.AsyncFilter.Filter(updates, round)
	r.batches = append(r.batches, batch)
	r.results = append(r.results, append([]fl.Decision(nil), res.Decisions...))
	return res, err
}

// newDiffFilter builds the paper's filter with four clusters and a low
// rejection guard, so the attack-free recorded sequence still yields
// rejects and (from the two middle clusters) deferrals.
func newDiffFilter(t *testing.T) *core.AsyncFilter {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.K = 4
	cfg.RejectThreshold = 0.25
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func snapshotOf(t *testing.T, f fl.Filter) []byte {
	t.Helper()
	state, err := f.(fl.StateSnapshotter).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRoundEngineDriversAgree is the round engine's differential test:
// one recorded update sequence goes through the simulator, a loopback
// transport server and a root fed goal-sized edge batches, and all three
// must end with bit-identical global parameters and byte-identical
// filter state. The sequence is recorded from a simulation, so it covers
// staleness > 0, deferrals carried into later rounds, and (through the
// tight staleness limit) deferrals dropped as stale.
func TestRoundEngineDriversAgree(t *testing.T) {
	const rounds, limit = 16, 2
	cfg := sim.Config{
		NumClients:      16,
		AggregationGoal: 8,
		StalenessLimit:  limit,
		Rounds:          rounds,
		Data: dataset.SyntheticConfig{
			Name: "diff", NumClasses: 4, Dim: 10,
			TrainSize: 1600, TestSize: 200,
			Separation: 4, Noise: 1, Seed: 5,
		},
		PartitionAlpha: 0.3,
		PartitionSize:  60,
		Model:          model.Config{Arch: model.ArchLinear, InputDim: 10, NumClasses: 4},
		Trainer: fl.TrainerConfig{
			Epochs: 1, BatchSize: 16,
			Optim: optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
		},
		Aggregator:   fl.AggregatorConfig{StalenessExponent: 0.5, SampleWeighted: true},
		LatencyModel: sim.LatencyZipf,
		ZipfS:        1.2,
		Seed:         11,
	}
	rec := &batchRecorder{AsyncFilter: newDiffFilter(t)}
	s, err := sim.New(cfg, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial := s.GlobalParams()
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) != rounds {
		t.Fatalf("recorded %d batches, want %d", len(rec.batches), rounds)
	}

	// Split each batch into the requeued deferrals of the previous round
	// (they lead the batch) and the round's fresh arrivals.
	arrivals := make([][]fl.Update, rounds)
	carried, stale, dropped := 0, 0, 0
	survivors := 0
	for n, batch := range rec.batches {
		for i := 0; i < survivors; i++ {
			if prev := rec.batches[n-1]; batch[i].Staleness == 0 || batch[i].ClientID != deferredAt(prev, rec.results[n-1], i, n, limit).ClientID {
				t.Fatalf("round %d: update %d is not the requeued deferral", n+1, i)
			}
		}
		carried += survivors
		arrivals[n] = batch[survivors:]
		survivors = 0
		for i, u := range batch {
			if u.Staleness > 0 {
				stale++
			}
			if rec.results[n][i] != fl.Defer {
				continue
			}
			if (n+1)-u.BaseVersion > limit {
				dropped++
			} else {
				survivors++
			}
		}
	}
	t.Logf("%d requeued deferrals, %d stale updates, %d stale drops", carried, stale, dropped)
	if carried == 0 || stale == 0 || dropped == 0 {
		t.Fatalf("sequence too tame: %d requeued, %d stale, %d dropped deferrals; want all > 0", carried, stale, dropped)
	}
	dim := len(initial)

	// Flat server: one loopback connection per client, arrivals sent one
	// at a time so the buffer fills in recorded order.
	srvFilter := newDiffFilter(t)
	srv, err := transport.NewServer(transport.ServerConfig{
		InitialParams:   initial,
		AggregationGoal: cfg.AggregationGoal,
		StalenessLimit:  limit,
		Rounds:          rounds,
		Aggregator:      cfg.Aggregator,
	}, srvFilter, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()
	defer func() {
		_ = srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("server serve: %v", err)
		}
	}()
	conns := map[int]*transport.ClientConn{}
	roundTrip := func(cc *transport.ClientConn, msg *transport.ClientMsg) *transport.ServerMsg {
		t.Helper()
		if err := cc.Send(msg); err != nil {
			t.Fatalf("send: %v", err)
		}
		var reply transport.ServerMsg
		if err := cc.Recv(&reply); err != nil {
			t.Fatalf("recv: %v", err)
		}
		return &reply
	}
	for _, batch := range arrivals {
		for _, u := range batch {
			cc, ok := conns[u.ClientID]
			if !ok {
				conn, err := net.DialTimeout("tcp", lis.Addr().String(), 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				cc = transport.NewClientConn(conn)
				conns[u.ClientID] = cc
				hello := &transport.Hello{ClientID: u.ClientID, NumSamples: u.NumSamples, ModelDim: dim, Codec: transport.CodecBinary}
				if reply := roundTrip(cc, &transport.ClientMsg{Hello: hello}); reply.Task == nil {
					t.Fatalf("hello from client %d refused: %+v", u.ClientID, reply)
				}
			}
			update := &transport.UpdateMsg{BaseVersion: u.BaseVersion, Delta: u.Delta}
			if reply := roundTrip(cc, &transport.ClientMsg{Update: update}); reply.Nack != 0 {
				t.Fatalf("update from client %d refused: %v", u.ClientID, reply.Nack)
			}
		}
	}
	if v := srv.Version(); v != rounds {
		t.Fatalf("server at version %d, want %d", v, rounds)
	}

	// Root: each round's arrivals as one edge batch, stamped with the
	// staleness the edge would have measured.
	rootFilter := newDiffFilter(t)
	root, addr := startRoot(t, RootConfig{
		InitialParams:  initial,
		Rounds:         rounds,
		StalenessLimit: limit,
		Aggregator:     cfg.Aggregator,
	}, rootFilter)
	edge := dialRootT(t, addr)
	hello := &transport.EdgeHello{EdgeID: 0, ModelDim: dim, ClientAddr: "127.0.0.1:1", NextBatch: 1}
	if reply := edge.roundTrip(&transport.EdgeMsg{Hello: hello}); reply.Nack != 0 {
		t.Fatalf("edge hello refused: %v", reply.Nack)
	}
	for n, batch := range arrivals {
		updates := make([]*fl.Update, len(batch))
		for i := range batch {
			u := fl.CloneUpdate(&batch[i])
			u.Staleness = n - u.BaseVersion
			u.BaseVersion = -1 // edge-local; the root must not depend on it
			updates[i] = u
		}
		if reply := edge.batch(uint64(n+1), updates...); reply.Nack != 0 || reply.Ack != uint64(n+1) {
			t.Fatalf("batch %d: nack=%v ack=%d", n+1, reply.Nack, reply.Ack)
		}
	}

	want, wantState := s.GlobalParams(), snapshotOf(t, rec)
	for _, d := range []struct {
		name   string
		params []float64
		filter fl.Filter
	}{
		{"server", srv.FinalParams(), srvFilter},
		{"root", root.FinalParams(), rootFilter},
	} {
		if !sameBits(d.params, want) {
			t.Errorf("%s global params differ from the simulator's", d.name)
		}
		if !bytes.Equal(snapshotOf(t, d.filter), wantState) {
			t.Errorf("%s filter state differs from the simulator's", d.name)
		}
	}
	st := root.Stats()
	if st.Deferred == 0 || st.DroppedStale != dropped {
		t.Errorf("root deferred %d and dropped %d stale, want > 0 and %d", st.Deferred, st.DroppedStale, dropped)
	}
	if got := srv.Stats().DroppedStale; got != dropped {
		t.Errorf("server dropped %d stale deferrals, want %d", got, dropped)
	}
}

// deferredAt returns the i-th deferral of batch n-1 (0-based n) that
// survived the requeue at version n.
func deferredAt(batch []fl.Update, decisions []fl.Decision, i, n, limit int) fl.Update {
	for j, u := range batch {
		if decisions[j] != fl.Defer || n-u.BaseVersion > limit {
			continue
		}
		if i == 0 {
			return u
		}
		i--
	}
	return fl.Update{ClientID: -1}
}
