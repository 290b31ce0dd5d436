package experiments

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Hierarchy experiment defaults: a small linear model on synthetic data
// keeps each leg to a few seconds of wall clock while still pushing real
// wire traffic, filtering and aggregation through loopback TCP.
const (
	hierarchyClients      = 12
	hierarchyMalicious    = 3
	hierarchyInputDim     = 8
	hierarchyClasses      = 3
	hierarchyEdges        = 2
	hierarchySingleGoal   = 8
	hierarchyEdgeGoal     = 6
	hierarchySingleRounds = 24
	hierarchyRootRounds   = 48
)

// HierarchyLeg is the measurement of one deployment shape.
type HierarchyLeg struct {
	// System is "single" or "two-tier".
	System string
	// Rounds is the number of global aggregations committed (root batches
	// applied for the two-tier leg).
	Rounds int
	// Duration is first-client-start to deployment-done wall clock.
	Duration time.Duration
	// UpdatesReceived and Rejected aggregate the client-facing filter
	// servers (both edges for the two-tier leg).
	UpdatesReceived, Rejected int
	// BatchesApplied, BatchesReplayed and BatchesLost describe the
	// edge->root protocol; zero on the single leg.
	BatchesApplied, BatchesReplayed, BatchesLost int
}

// RoundsPerSec is the leg's global aggregation throughput.
func (l HierarchyLeg) RoundsPerSec() float64 {
	if secs := l.Duration.Seconds(); secs > 0 {
		return float64(l.Rounds) / secs
	}
	return 0
}

// HierarchyResult compares a classic single-server deployment against the
// two-tier edge/root topology on the same client population and attack
// mix, over real loopback TCP.
type HierarchyResult struct {
	ID   string
	Legs []HierarchyLeg
}

// Render prints the hierarchy benchmark.
func (h *HierarchyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: single server vs two-tier topology, %d clients / %d malicious (extension experiment)\n\n",
		h.ID, hierarchyClients, hierarchyMalicious)
	b.WriteString("| System | Rounds | Duration | Rounds/s | Updates | Rejected | Batches applied | Replayed | Lost |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, l := range h.Legs {
		fmt.Fprintf(&b, "| %s | %d | %.2fs | %.1f | %d | %d | %d | %d | %d |\n",
			l.System, l.Rounds, l.Duration.Seconds(), l.RoundsPerSec(),
			l.UpdatesReceived, l.Rejected,
			l.BatchesApplied, l.BatchesReplayed, l.BatchesLost)
	}
	return b.String()
}

// RunHierarchy benchmarks the two deployment shapes over loopback TCP:
// the same clients, data, attack mix and AsyncFilter configuration, once
// against one flat server and once through edge aggregators forwarding
// filtered batches to a root. Gauges land in scale.Obsv (one per leg and
// metric) so `aflbench -metrics-out` snapshots the comparison.
func RunHierarchy(scale Scale) (*HierarchyResult, error) {
	scale = scale.withDefaults()
	res := &HierarchyResult{ID: "hierarchy"}

	single, err := runHierarchySingle(scale)
	if err != nil {
		return nil, fmt.Errorf("hierarchy single leg: %w", err)
	}
	res.Legs = append(res.Legs, single)

	twoTier, err := runHierarchyTwoTier(scale)
	if err != nil {
		return nil, fmt.Errorf("hierarchy two-tier leg: %w", err)
	}
	res.Legs = append(res.Legs, twoTier)

	if scale.Obsv != nil {
		for _, l := range res.Legs {
			label := "{system=" + fmt.Sprintf("%q", l.System) + "}"
			reg := scale.Obsv.Registry
			reg.Gauge("afl_hierarchy_rounds" + label).Set(float64(l.Rounds))
			reg.Gauge("afl_hierarchy_duration_seconds" + label).Set(l.Duration.Seconds())
			reg.Gauge("afl_hierarchy_rounds_per_sec" + label).Set(l.RoundsPerSec())
			reg.Gauge("afl_hierarchy_updates_received" + label).Set(float64(l.UpdatesReceived))
			reg.Gauge("afl_hierarchy_updates_rejected" + label).Set(float64(l.Rejected))
			reg.Gauge("afl_hierarchy_batches_applied" + label).Set(float64(l.BatchesApplied))
			reg.Gauge("afl_hierarchy_batches_replayed" + label).Set(float64(l.BatchesReplayed))
			reg.Gauge("afl_hierarchy_batches_lost" + label).Set(float64(l.BatchesLost))
		}
	}
	return res, nil
}

func hierarchyModel() model.Config {
	return model.Config{Arch: model.ArchLinear, InputDim: hierarchyInputDim, NumClasses: hierarchyClasses, Seed: 1}
}

func hierarchyParams() ([]float64, error) {
	m, err := model.New(hierarchyModel())
	if err != nil {
		return nil, err
	}
	p := make([]float64, m.NumParams())
	m.Params(p)
	return p, nil
}

// launchHierarchyClients starts the shared client population against the
// given home addresses and returns a wait function that blocks until all
// clients exit (they error out when the servers shut down; the
// measurement lives in the server counters).
func launchHierarchyClients(seed int64, addrs []string) (func(), error) {
	train, _, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "hierarchy", NumClasses: hierarchyClasses, Dim: hierarchyInputDim,
		TrainSize: 1200, TestSize: 60,
		Separation: 4, Noise: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	parts, err := dataset.PartitionIIDFixedSize(train, hierarchyClients, 60, randx.New(seed+1))
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i := 0; i < hierarchyClients; i++ {
		cfg := transport.ClientConfig{
			ID:    i,
			Data:  parts[i],
			Model: hierarchyModel(),
			Trainer: fl.TrainerConfig{
				Epochs: 1, BatchSize: 16,
				Optim: optim.Config{Name: optim.SGDName, LR: 0.05, Momentum: 0.9},
			},
			Seed:           seed + int64(100+i),
			MaxRetries:     10,
			RetryBaseDelay: 5 * time.Millisecond,
			RetryMaxDelay:  100 * time.Millisecond,
		}
		if i < hierarchyMalicious {
			cfg.Attack = attack.Config{Name: attack.GDName, Scale: 2}
		}
		client, err := transport.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		addr := addrs[i%len(addrs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(addr)
		}()
	}
	return wg.Wait, nil
}

func hierarchyFilter(seed int64) (fl.Filter, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.New(cfg)
}

func runHierarchySingle(scale Scale) (HierarchyLeg, error) {
	rounds := hierarchySingleRounds
	if scale.Rounds > 0 {
		rounds = scale.Rounds
	}
	params, err := hierarchyParams()
	if err != nil {
		return HierarchyLeg{}, err
	}
	filter, err := hierarchyFilter(scale.BaseSeed)
	if err != nil {
		return HierarchyLeg{}, err
	}
	srv, err := transport.NewServer(transport.ServerConfig{
		InitialParams:   params,
		AggregationGoal: hierarchySingleGoal,
		StalenessLimit:  10,
		Rounds:          rounds,
		Obsv:            scale.Obsv,
	}, filter, nil)
	if err != nil {
		return HierarchyLeg{}, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HierarchyLeg{}, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	start := time.Now()
	wait, err := launchHierarchyClients(scale.BaseSeed, []string{lis.Addr().String()})
	if err != nil {
		_ = srv.Close()
		<-serveErr
		return HierarchyLeg{}, err
	}
	select {
	case <-srv.Done():
	case <-time.After(2 * time.Minute):
		_ = srv.Close()
		<-serveErr
		wait()
		return HierarchyLeg{}, fmt.Errorf("single leg stalled: %+v", srv.Stats())
	}
	duration := time.Since(start)
	if err := srv.Close(); err != nil {
		return HierarchyLeg{}, err
	}
	<-serveErr
	wait()

	st := srv.Stats()
	return HierarchyLeg{
		System:          "single",
		Rounds:          st.Rounds,
		Duration:        duration,
		UpdatesReceived: st.UpdatesReceived,
		Rejected:        st.Rejected,
	}, nil
}

func runHierarchyTwoTier(scale Scale) (HierarchyLeg, error) {
	rounds := hierarchyRootRounds
	if scale.Rounds > 0 {
		rounds = 2 * scale.Rounds
	}
	params, err := hierarchyParams()
	if err != nil {
		return HierarchyLeg{}, err
	}
	root, err := topology.NewRoot(topology.RootConfig{
		InitialParams:     params,
		Rounds:            rounds,
		StalenessLimit:    10,
		EdgeLeaseDuration: 2 * time.Second,
		Obsv:              scale.Obsv,
	}, nil, nil)
	if err != nil {
		return HierarchyLeg{}, err
	}
	rootLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HierarchyLeg{}, err
	}
	rootErr := make(chan error, 1)
	go func() { rootErr <- root.Serve(rootLis) }()

	edges := make([]*topology.Edge, hierarchyEdges)
	addrs := make([]string, hierarchyEdges)
	edgeErrs := make(chan error, hierarchyEdges)
	for i := range edges {
		filter, err := hierarchyFilter(scale.BaseSeed + int64(i))
		if err != nil {
			return HierarchyLeg{}, err
		}
		edge, err := topology.NewEdge(topology.EdgeConfig{
			EdgeID:   i,
			RootAddr: rootLis.Addr().String(),
			Server: transport.ServerConfig{
				InitialParams:   params,
				AggregationGoal: hierarchyEdgeGoal,
				StalenessLimit:  10,
				Rounds:          1 << 30,
			},
			HeartbeatEvery:    200 * time.Millisecond,
			MaxPendingBatches: 32,
			Seed:              scale.BaseSeed + int64(i),
		}, filter, nil)
		if err != nil {
			return HierarchyLeg{}, err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return HierarchyLeg{}, err
		}
		edges[i] = edge
		addrs[i] = lis.Addr().String()
		go func(e *topology.Edge, l net.Listener) { edgeErrs <- e.Serve(l) }(edge, lis)
	}

	start := time.Now()
	wait, err := launchHierarchyClients(scale.BaseSeed, addrs)
	if err != nil {
		for _, e := range edges {
			_ = e.Close()
		}
		_ = root.Close()
		return HierarchyLeg{}, err
	}
	select {
	case <-root.Done():
	case <-time.After(2 * time.Minute):
		for _, e := range edges {
			_ = e.Close()
		}
		_ = root.Close()
		wait()
		return HierarchyLeg{}, fmt.Errorf("two-tier leg stalled: %+v", root.Stats())
	}
	duration := time.Since(start)

	leg := HierarchyLeg{System: "two-tier", Duration: duration}
	for _, e := range edges {
		if err := e.Close(); err != nil {
			return HierarchyLeg{}, err
		}
		st := e.Server().Stats()
		leg.UpdatesReceived += st.UpdatesReceived
		leg.Rejected += st.Rejected
	}
	if err := root.Close(); err != nil {
		return HierarchyLeg{}, err
	}
	<-rootErr
	for range edges {
		<-edgeErrs
	}
	wait()

	rs := root.Stats()
	leg.Rounds = rs.Rounds
	leg.BatchesApplied = rs.BatchesApplied
	leg.BatchesReplayed = rs.BatchesReplayed
	leg.BatchesLost = rs.BatchesLost
	return leg, nil
}
