package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/replica"
	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Production-shaped serving configuration shared by every workload: a
// bounded in-flight buffer (a small multiple of the goal), read and write
// timeouts, a message-size guard and the round watchdog. An unbounded
// buffer under flood load lets one round drain thousands of updates.
const (
	stalenessLimit   = 20
	pendingPerGoal   = 4
	readTimeout      = 30 * time.Second
	writeTimeout     = 10 * time.Second
	maxMessageBytes  = 16 << 20
	roundTimeout     = 2 * time.Second
	rootCkptEvery    = 50
	edgeMaxPending   = 64
	replicaLease     = 3 * time.Second
	replicaLogDepth  = 128
	edgeLease        = 10 * time.Second
	neverFinishRound = 1 << 30
)

// drawnStaleness is the largest staleness the generator draws. It stays
// staleMargin below the server's limit. An update is sent against the
// latest version its connection has seen, and before it arrives the
// server may still commit the rounds of the work it holds (up to
// holdGoals goals) and of the updates in flight ahead of it. An update
// drawn near the limit would be dropped as stale on arrival, a failure
// caused by the load generator rather than the server.
const (
	staleMargin    = 10
	drawnStaleness = stalenessLimit - staleMargin
)

// stack is one running deployment under test: the flat server, or the
// tiered edge -> root primary -> standby group.
type stack struct {
	w         *workload
	addr      string
	flat      *transport.Server
	front     *countingFilter // filter of the client-facing server
	root      *countingFilter // tiered only
	edge      *topology.Edge
	pRoot     *topology.Root
	sRoot     *topology.Root
	pNode     *replica.Node
	sNode     *replica.Node
	dir       string
	pRootAddr string
	served    []chan error

	// Traced-run instruments (nil tracer = untraced).
	tr          *tracer
	wire        wireStats
	uplinkBytes atomic.Int64
	replBytes   atomic.Int64
}

// client-facing transport server (the flat server or the edge's).
func (st *stack) server() *transport.Server {
	if st.edge != nil {
		return st.edge.Server()
	}
	return st.flat
}

func serverConfig(w *workload, params []float64) transport.ServerConfig {
	return transport.ServerConfig{
		InitialParams:     params,
		AggregationGoal:   w.goal,
		StalenessLimit:    stalenessLimit,
		Rounds:            neverFinishRound,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		MaxMessageBytes:   maxMessageBytes,
		RoundTimeout:      roundTimeout,
		MaxPendingUpdates: pendingPerGoal * w.goal,
	}
}

func newAsyncFilter(seed int64) (*core.AsyncFilter, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return core.New(cfg)
}

// initialParams draws the starting global model from the seed.
func initialParams(dim int, seed int64) []float64 {
	return randx.NormalVector(randx.New(seed), dim, 0, 0.05)
}

func (st *stack) serve(fn func() error) {
	ch := make(chan error, 1)
	st.served = append(st.served, ch)
	go func() { ch <- fn() }()
}

// buildStack starts the deployment for w. tmp is where the tiered root
// writes its checkpoints.
func buildStack(w *workload, seed int64, tmp string, tr *tracer) (*stack, error) {
	st := &stack{w: w, tr: tr}
	params := initialParams(w.dim, seed)
	f, err := newAsyncFilter(seed)
	if err != nil {
		return nil, err
	}
	var frontRT *roundTrace
	if tr != nil {
		frontRT = &roundTrace{tr: tr}
	}
	st.front = newCountingFilter(f, w.clients, frontRT)
	comb := &timedCombiner{rt: frontRT}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.addr = lis.Addr().String()
	if tr != nil {
		lis = &tracedListener{Listener: lis, tr: tr, ws: &st.wire}
	}
	if !w.tiered {
		srv, err := transport.NewServer(serverConfig(w, params), st.front, comb)
		if err != nil {
			lis.Close()
			return nil, err
		}
		st.flat = srv
		st.serve(func() error { return srv.Serve(lis) })
		return st, nil
	}
	if err := st.buildRoots(params, seed, tmp); err != nil {
		lis.Close()
		st.close()
		return nil, err
	}
	ecfg := topology.EdgeConfig{
		EdgeID:            0,
		RootAddr:          st.pRootAddr,
		Server:            serverConfig(w, params),
		MaxPendingBatches: edgeMaxPending,
		UplinkCodec:       transport.CodecBinary,
		Seed:              seed,
	}
	if tr != nil {
		ecfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, writeTimeout)
			if err != nil {
				return nil, err
			}
			return &uplinkConn{Conn: c, tr: tr, bytesOut: &st.uplinkBytes}, nil
		}
	}
	edge, err := topology.NewEdge(ecfg, st.front, comb)
	if err != nil {
		lis.Close()
		st.close()
		return nil, err
	}
	st.edge = edge
	st.serve(func() error { return edge.Serve(lis) })
	return st, nil
}

// buildRoots starts the root primary (re-screening with its own filter,
// checkpointing every rootCkptEvery rounds) and one standby attached to
// it over binary-codec replication.
func (st *stack) buildRoots(params []float64, seed int64, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "tiered-")
	if err != nil {
		return err
	}
	st.dir = dir
	lisP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lisS, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lisP.Close()
		return err
	}
	st.pRootAddr = lisP.Addr().String()
	peers := []string{st.pRootAddr, lisS.Addr().String()}
	rootCfg := topology.RootConfig{
		InitialParams:     params,
		Rounds:            neverFinishRound,
		StalenessLimit:    stalenessLimit,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		MaxMessageBytes:   maxMessageBytes,
		EdgeLeaseDuration: edgeLease,
	}
	var rootRT *roundTrace
	if st.tr != nil {
		rootRT = &roundTrace{tr: st.tr, prefix: "root.", idBase: 1 << 40}
	}
	rf, err := newAsyncFilter(seed + 1)
	if err != nil {
		return err
	}
	st.root = newCountingFilter(rf, st.w.clients, rootRT)
	pcfg := rootCfg
	pcfg.CheckpointPath = filepath.Join(dir, "root.ckpt")
	pcfg.CheckpointEvery = rootCkptEvery
	if st.pRoot, err = topology.NewRoot(pcfg, st.root, &timedCombiner{rt: rootRT}); err != nil {
		return err
	}
	st.pNode, err = replica.NewNode(replica.Config{
		NodeID:     0,
		ReplListen: "127.0.0.1:0",
		Peers:      peers,
		Lease:      replicaLease,
		Codec:      transport.CodecBinary,
		LogDepth:   replicaLogDepth,
		Seed:       seed,
	}, st.pRoot)
	if err != nil {
		return err
	}
	sf, err := newAsyncFilter(seed + 1)
	if err != nil {
		return err
	}
	if st.sRoot, err = topology.NewRoot(rootCfg, sf, nil); err != nil {
		return err
	}
	scfg := replica.Config{
		NodeID:    1,
		Upstreams: []string{st.pNode.ReplAddr()},
		Peers:     peers,
		Lease:     replicaLease,
		Codec:     transport.CodecBinary,
		Seed:      seed + 1,
	}
	if st.tr != nil {
		scfg.Dial = func(addr string) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, writeTimeout)
			if err != nil {
				return nil, err
			}
			return &standbyConn{Conn: c, tr: st.tr, bytesIn: &st.replBytes}, nil
		}
	}
	if st.sNode, err = replica.NewNode(scfg, st.sRoot); err != nil {
		return err
	}
	pNode, sNode := st.pNode, st.sNode
	st.serve(func() error { return pNode.Serve(lisP) })
	st.serve(func() error { return sNode.Serve(lisS) })
	return nil
}

// The generator holds back (see gen.admit) while the client-facing
// server holds holdGoals aggregation goals of unfinished updates, or the
// tiered edge holdBatches batches the root has not acknowledged. Both stay
// clear of the shedding points. The generator never has a whole goal of
// updates in flight, so the server never holds pendingPerGoal goals, and
// the edge commits at most one more batch than holdBatches, far fewer
// than the edgeMaxPending it keeps.
const (
	holdGoals   = pendingPerGoal - 1
	holdBatches = edgeMaxPending / 4
)

// saturated reports whether the generator should hold back.
func (st *stack) saturated() bool {
	s := st.server().Stats()
	open := s.UpdatesReceived - s.DroppedMalformed - s.DroppedQuarantined - s.DroppedRateLimited -
		s.DroppedShed - s.DroppedStale - s.Accepted - s.Rejected
	if open >= holdGoals*st.w.goal {
		return true
	}
	return st.edge != nil && st.edgeBacklog() >= holdBatches
}

// edgeBacklog is the number of batches the tiered edge has committed and
// the root has not yet acknowledged.
func (st *stack) edgeBacklog() int {
	es := st.edge.Stats()
	return es.BatchesCommitted - es.BatchesShed - es.BatchesAcked
}

// ready reports whether the deployment's own links are up: for tiered,
// the standby has attached and the edge holds an uplink session.
func (st *stack) ready() bool {
	if st.edge == nil {
		return true
	}
	return st.pNode.Stats().StandbyAttaches >= 1 && st.edge.Stats().UplinkSessions >= 1
}

// close stops every server of the stack and waits for their Serve calls.
func (st *stack) close() error {
	var errs []error
	if st.edge != nil {
		errs = append(errs, st.edge.Close())
	}
	if st.flat != nil {
		errs = append(errs, st.flat.Close())
	}
	if st.sNode != nil {
		errs = append(errs, st.sNode.Close())
	}
	if st.pNode != nil {
		errs = append(errs, st.pNode.Close())
	}
	for _, ch := range st.served {
		select {
		case err := <-ch:
			if err != nil && !errors.Is(err, net.ErrClosed) {
				errs = append(errs, err)
			}
		case <-time.After(20 * time.Second):
			errs = append(errs, fmt.Errorf("server did not stop within 20s"))
		}
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}
