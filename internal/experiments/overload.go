package experiments

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Overload experiment defaults: the flooder population offers roughly an
// order of magnitude more updates than the paced admission budget lets
// through, so every shedding path gets exercised.
const (
	overloadClients    = 16
	overloadGoal       = 8
	overloadMaxPending = 12
	overloadRate       = 150 // per-client updates/sec
	overloadBurst      = 3
	overloadDim        = 256
	overloadRounds     = 40
	overloadCombineLag = 2 * time.Millisecond
)

// slowCombiner is a weighted mean with a fixed per-round latency,
// standing in for the filtering + aggregation cost of a paper-scale
// model so the update buffer actually backs up under flood.
type slowCombiner struct {
	lag time.Duration
}

func (c slowCombiner) Combine(updates []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	time.Sleep(c.lag)
	return fl.MeanCombiner{}.Combine(updates, cfg)
}

func (c slowCombiner) Name() string { return "slow-mean" }

// OverloadResult reports how the transport server's admission-control
// machinery holds up when the offered load far exceeds aggregation
// capacity: throughput actually admitted versus shed stalest-first or
// bounced by per-client rate limits.
type OverloadResult struct {
	ID string
	// Clients is the flooder population.
	Clients int
	// Rounds is the number of aggregations the deployment ran.
	Rounds int
	// Duration is the wall-clock time from first flood to completion.
	Duration time.Duration
	// Stats is the server's lifetime counter snapshot.
	Stats transport.ServerStats
}

// perSec converts a lifetime counter into a throughput.
func (o *OverloadResult) perSec(n int) float64 {
	secs := o.Duration.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

// Render prints the overload report.
func (o *OverloadResult) Render() string {
	st := o.Stats
	admitted := st.UpdatesReceived - st.DroppedShed - st.DroppedRateLimited -
		st.DroppedQuarantined - st.DroppedMalformed
	var b strings.Builder
	fmt.Fprintf(&b, "%s: admission control under a %d-client flood (extension experiment)\n\n", o.ID, o.Clients)
	b.WriteString("| Metric | Count | Throughput |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| offered updates | %d | %.0f/s |\n", st.UpdatesReceived, o.perSec(st.UpdatesReceived))
	fmt.Fprintf(&b, "| admitted to buffer | %d | %.0f/s |\n", admitted, o.perSec(admitted))
	fmt.Fprintf(&b, "| shed (stalest first) | %d | %.0f/s |\n", st.DroppedShed, o.perSec(st.DroppedShed))
	fmt.Fprintf(&b, "| rate-limited | %d | %.0f/s |\n", st.DroppedRateLimited, o.perSec(st.DroppedRateLimited))
	fmt.Fprintf(&b, "| NACKs sent | %d | %.0f/s |\n", st.NacksSent, o.perSec(st.NacksSent))
	fmt.Fprintf(&b, "\n%d rounds in %.2fs (%d clients connected)\n",
		o.Rounds, o.Duration.Seconds(), st.ClientsConnected)
	return b.String()
}

// RunOverload floods a real TCP transport server with far more updates
// than its paced admission budget accepts and reports what the overload
// machinery did about it. The flooders speak the frame protocol by hand —
// no local training, no NACK backoff — so the offered load is bounded only by loopback
// round-trips, roughly 10x what the per-client token buckets let through.
func RunOverload(scale Scale) (*OverloadResult, error) {
	scale = scale.withDefaults()
	rounds := overloadRounds
	if scale.Rounds > 0 {
		rounds = scale.Rounds
	}

	srv, err := transport.NewServer(transport.ServerConfig{
		InitialParams:     make([]float64, overloadDim),
		AggregationGoal:   overloadGoal,
		Rounds:            rounds,
		MaxPendingUpdates: overloadMaxPending,
		ClientRateLimit:   overloadRate,
		ClientBurst:       overloadBurst,
		WriteTimeout:      10 * time.Second,
		ReadTimeout:       10 * time.Second,
		Obsv:              scale.Obsv,
	}, nil, slowCombiner{lag: overloadCombineLag})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := lis.Addr().String()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < overloadClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Flooder errors are expected at shutdown (the server hangs
			// up); the measurement lives in the server's counters.
			_ = flood(addr, id, scale.BaseSeed+int64(id))
		}(id)
	}

	<-srv.Done()
	duration := time.Since(start)
	if err := srv.Close(); err != nil {
		return nil, err
	}
	<-serveErr
	wg.Wait()

	return &OverloadResult{
		ID:       "overload",
		Clients:  overloadClients,
		Rounds:   srv.Version(),
		Duration: duration,
		Stats:    srv.Stats(),
	}, nil
}

// flood runs one hand-driven flooder: Hello, then resubmit a noise delta
// for every task the server hands back, ignoring NACK pacing hints
// entirely.
func flood(addr string, id int, seed int64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	cc := transport.NewClientConn(conn)
	rng := randx.New(seed)
	delta := make([]float64, overloadDim)
	for i := range delta {
		delta[i] = 0.01 * rng.NormFloat64()
	}
	hello := transport.ClientMsg{Hello: &transport.Hello{
		ClientID: id, NumSamples: 10, ModelDim: overloadDim, Codec: transport.CodecBinary,
	}}
	if err := cc.Send(&hello); err != nil {
		return err
	}
	for {
		var msg transport.ServerMsg
		if err := cc.Recv(&msg); err != nil {
			return err
		}
		if msg.Done || msg.Goodbye {
			return nil
		}
		if msg.Task == nil {
			continue
		}
		out := transport.ClientMsg{Update: &transport.UpdateMsg{
			BaseVersion: msg.Task.Version,
			Delta:       delta,
		}}
		if err := cc.Send(&out); err != nil {
			return err
		}
	}
}
