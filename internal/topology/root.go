package topology

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/transport"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// RootConfig parameterizes the root aggregation server of a two-tier
// deployment.
type RootConfig struct {
	// InitialParams seeds the fleet-wide global model.
	InitialParams []float64
	// Rounds is the number of applied batches (root rounds) before the
	// deployment completes.
	Rounds int
	// StalenessLimit discards deferred updates that have waited more than
	// this many root rounds for a verdict (0 disables).
	StalenessLimit int
	// Aggregator configures aggregation weighting.
	Aggregator fl.AggregatorConfig
	// ReadTimeout bounds each blocking read from an edge connection
	// (0 disables). It must cover an edge's heartbeat interval.
	ReadTimeout time.Duration
	// WriteTimeout bounds each reply transmission (0 disables).
	WriteTimeout time.Duration
	// MaxMessageBytes caps a single decoded edge message (0 disables).
	MaxMessageBytes int64
	// EdgeLeaseDuration declares an edge dead after this much silence:
	// it is removed from the shard map (its clients re-home to the
	// survivors) and its last filter snapshot is queued as a handoff to
	// every surviving edge (0 disables failover).
	EdgeLeaseDuration time.Duration
	// CheckpointPath, when non-empty, makes the root durable: the global
	// model, per-edge batch watermarks, retained filter snapshots, queued
	// handoffs and the root filter's own state are written atomically
	// during aggregation and on Close, and NewRoot restores from an
	// existing snapshot so a restarted root resumes without double-counting
	// replayed batches.
	CheckpointPath string
	// CheckpointEvery writes a snapshot after every N applied batches
	// (<= 0 selects 1). Only meaningful with CheckpointPath.
	CheckpointEvery int
	// Obsv, when non-nil, attaches the observability layer: per-edge
	// labeled counters for applied/replayed batches and a live-edge gauge.
	Obsv *obsv.Hub
}

// Validate checks the configuration.
func (c *RootConfig) Validate() error {
	if len(c.InitialParams) == 0 {
		return errors.New("topology: RootConfig: empty InitialParams")
	}
	if c.Rounds < 1 {
		return fmt.Errorf("topology: RootConfig: Rounds = %d, need >= 1", c.Rounds)
	}
	if c.StalenessLimit < 0 {
		return fmt.Errorf("topology: RootConfig: StalenessLimit = %d, need >= 0", c.StalenessLimit)
	}
	if c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.EdgeLeaseDuration < 0 {
		return errors.New("topology: RootConfig: negative timeout")
	}
	if c.MaxMessageBytes < 0 {
		return fmt.Errorf("topology: RootConfig: MaxMessageBytes = %d, need >= 0", c.MaxMessageBytes)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("topology: RootConfig: CheckpointEvery = %d, need >= 0", c.CheckpointEvery)
	}
	return nil
}

// RootStats summarizes a root deployment.
type RootStats struct {
	// Rounds is the number of batches applied (each advances the global
	// model version by one).
	Rounds int
	// BatchesApplied and BatchesReplayed count first-time applications
	// versus idempotent replays answered with a bare ack; BatchesLost
	// counts batch ids skipped by forward gaps — batches an edge committed
	// but could never deliver (shed while partitioned, or dropped across a
	// checkpoint-less root restart).
	BatchesApplied, BatchesReplayed, BatchesLost int
	// UpdatesReceived counts updates arriving in edge batches; Accepted,
	// Deferred and Rejected count the root filter's decisions on them.
	UpdatesReceived, Accepted, Deferred, Rejected int
	// DroppedStale counts deferred updates discarded for exceeding the
	// staleness limit; DroppedMalformed counts updates whose delta did not
	// match the global model dimension.
	DroppedStale, DroppedMalformed int
	// EdgesConnected counts distinct edge ids that completed a Hello;
	// EdgeReconnects counts Hellos from already-known edges.
	EdgesConnected, EdgeReconnects int
	// ExpiredEdgeLeases counts edges declared dead by the lease sweeper.
	ExpiredEdgeLeases int
	// HandoffsQueued counts filter snapshots queued for surviving edges
	// when an edge died; HandoffsDelivered counts the ones that reached a
	// successor. HandoffsOrphaned counts snapshots of edges that died with
	// no live survivor — they are parked and adopted (re-queued) by the
	// next edge to Hello.
	HandoffsQueued, HandoffsDelivered, HandoffsOrphaned int
	// Heartbeats, NacksSent, HandlerPanics, Checkpoints and
	// OversizeDropped mirror their transport.ServerStats counterparts for
	// the edge-facing protocol.
	Heartbeats, NacksSent, HandlerPanics, Checkpoints, OversizeDropped int
	// FencedNacks counts requests refused with NackFenced because the
	// sender carried a fencing epoch above this root's — proof a newer
	// primary was promoted and this root must demote (internal/replica).
	FencedNacks int
}

// edgeState is the root's durable view of one edge aggregator. An edge
// outlives its connections: watermark, retained filter snapshot and queued
// handoffs persist across reconnects (and, via the checkpoint, across root
// restarts).
type edgeState struct {
	id          int
	clientAddr  string
	lastApplied uint64
	lastSeen    time.Time
	live        bool
	conn        net.Conn
	// filterState is the edge's latest filter snapshot (handoff blob),
	// retained from its batches; handoffs are dead peers' snapshots queued
	// for delivery to this edge.
	filterState []byte
	handoffs    [][]byte
}

// Root is the top tier of a two-tier deployment: it accepts edge
// aggregator connections, applies their batches exactly once, maintains
// the fleet-wide model and shard map, and orchestrates failover. Create
// with NewRoot, start with Serve, wait on Done.
type Root struct {
	cfg    RootConfig
	filter fl.Filter

	mu sync.Mutex
	// eng runs the root rounds and owns the fleet-wide model and its
	// version (eng.Global, eng.Version); deferred is its buffer, holding
	// the updates the root filter deferred. Both are guarded by mu.
	eng      *fl.Engine
	deferred *fl.Buffer
	finished bool
	restored bool
	closed   bool
	fenced   bool
	// epoch is the fencing epoch this root serves under; peers is the
	// static root peer list relayed to edges (internal/replica). Both are
	// zero-valued on an unreplicated root.
	epoch        uint64
	peers        []string
	peersVersion int
	stats        RootStats
	edges        map[int]*edgeState
	shard        transport.ShardMap
	// orphans holds filter snapshots of edges that died while no live
	// survivor existed; they are adopted by the next edge to Hello so a
	// total partition never loses learned filter state.
	orphans  [][]byte
	conns    map[net.Conn]struct{}
	listener net.Listener

	// roundSlot serializes batch application (filter + combine + commit)
	// and checkpoint capture; it is a channel semaphore rather than a
	// mutex so no lock is ever held across the filter, the combiner or
	// checkpoint file I/O.
	roundSlot chan struct{}

	// onCommit, when set (before Serve), receives one replication log
	// record per applied batch, called while the round slot is held so
	// records are emitted in strict version order. replPrevFilter is the
	// filter snapshot the next record's delta is diffed against; it is
	// only touched under the round slot.
	onCommit       func(*transport.ReplRecord)
	replPrevFilter []byte

	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup
	sweeper  sync.Once
}

// NewRoot builds a root server. filter nil selects pass-through (the root
// then trusts the edges' filtering entirely); combiner nil selects the
// weighted mean. With a CheckpointPath, existing state is restored before
// serving.
func NewRoot(cfg RootConfig, filter fl.Filter, combiner fl.Combiner) (*Root, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filter == nil {
		filter = fl.Passthrough{}
	}
	// Edge batches bypass the buffer's arrival check (they enter the round
	// through Drain), so the staleness limit only ever drops deferrals.
	deferred, err := fl.NewBuffer(1, cfg.StalenessLimit)
	if err != nil {
		return nil, err
	}
	r := &Root{
		cfg:       cfg,
		filter:    filter,
		eng:       fl.NewEngine(vecmath.Clone(cfg.InitialParams), deferred, filter, combiner, cfg.Aggregator, nil),
		deferred:  deferred,
		edges:     make(map[int]*edgeState),
		conns:     make(map[net.Conn]struct{}),
		roundSlot: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	if cfg.CheckpointPath != "" {
		if err := r.restoreFromCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Serve accepts edge connections on lis until the configured rounds
// complete or Close is called.
func (r *Root) Serve(lis net.Listener) error {
	r.mu.Lock()
	r.listener = lis
	closed := r.closed
	r.mu.Unlock()
	if closed {
		// Close ran before Serve: it never saw the listener, so tear it
		// down here instead of leaking an accept loop.
		return lis.Close()
	}
	stop := make(chan struct{})
	if r.cfg.EdgeLeaseDuration > 0 {
		r.sweeper.Do(func() {
			r.wg.Add(1)
			go r.sweepEdges(stop)
		})
	}
	var serveErr error
	for serveErr == nil {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-r.done:
			default:
				if !r.isClosed() {
					serveErr = fmt.Errorf("topology: accept: %w", err)
				}
			}
			break
		}
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handle(conn)
		}()
	}
	close(stop)
	r.wg.Wait()
	return serveErr
}

// ListenAndServe listens on addr and calls Serve.
func (r *Root) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("topology: listen: %w", err)
	}
	return r.Serve(lis)
}

// Addr returns the listener address (empty before Serve).
func (r *Root) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

// Done is closed when the configured rounds have completed.
func (r *Root) Done() <-chan struct{} { return r.done }

// Version returns the current global model version.
func (r *Root) Version() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Version
}

// FinalParams returns a copy of the current global parameters.
func (r *Root) FinalParams() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return vecmath.Clone(r.eng.Global)
}

// Stats returns the lifetime counters.
func (r *Root) Stats() RootStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Restored reports whether NewRoot resumed from an existing checkpoint.
func (r *Root) Restored() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

// ShardMap returns a copy of the current shard map.
func (r *Root) ShardMap() transport.ShardMap {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.shard.Clone()
}

// Health reports the root's lifecycle state for /healthz.
func (r *Root) Health() obsv.Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return obsv.Health{Finished: r.finished, Restored: r.restored, Rounds: r.eng.Version}
}

func (r *Root) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// closeDone unblocks Done waiters exactly once.
func (r *Root) closeDone() {
	r.doneOnce.Do(func() { close(r.done) })
}

// Close stops the root: it waits for an in-flight batch application to
// commit, writes a final checkpoint when configured, and tears down the
// listener and every edge connection. Closing does NOT mark the
// deployment finished — edges caught mid-reply see their connection drop
// and treat the root as partitioned, not done, so a root shut down for
// maintenance does not terminate the fleet's uplinks.
func (r *Root) Close() error {
	r.mu.Lock()
	r.closeDone()
	alreadyClosed := r.closed
	r.closed = true
	lis := r.listener
	open := make([]net.Conn, 0, len(r.conns))
	for conn := range r.conns {
		open = append(open, conn)
	}
	r.mu.Unlock()

	if !alreadyClosed && r.cfg.CheckpointPath != "" {
		// Holding the round slot guarantees the filter is quiescent and the
		// snapshot includes the last committed batch.
		r.roundSlot <- struct{}{}
		r.writeCheckpoint()
		<-r.roundSlot
	}

	var err error
	if !alreadyClosed && lis != nil {
		err = lis.Close()
	}
	for _, conn := range open {
		_ = conn.Close()
	}
	return err
}

// recoverPanic isolates a panic in an edge handler to that connection.
func (r *Root) recoverPanic(where string) {
	if rec := recover(); rec != nil {
		r.mu.Lock()
		r.stats.HandlerPanics++
		r.mu.Unlock()
		log.Printf("topology: recovered %s panic: %v\n%s", where, rec, debug.Stack())
	}
}

// trackConn registers a live connection for teardown on Close.
func (r *Root) trackConn(conn net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.conns[conn] = struct{}{}
	return true
}

func (r *Root) untrackConn(conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.conns, conn)
}

// handle drives one edge connection: a Hello, then a strict request-reply
// loop over batches and heartbeats.
func (r *Root) handle(conn net.Conn) {
	defer r.recoverPanic("edge handler")
	defer conn.Close()
	if !r.trackConn(conn) {
		return
	}
	defer r.untrackConn(conn)

	// Acceptor side: the first read checks the edge's preamble.
	uc := transport.AcceptUpstreamConn(conn, r.cfg.MaxMessageBytes, r.cfg.ReadTimeout, r.cfg.WriteTimeout)
	first, err := uc.ReadEdge()
	if err != nil || first.Hello == nil {
		if err != nil && uc.Oversize() {
			r.mu.Lock()
			r.stats.OversizeDropped++
			r.mu.Unlock()
		}
		return
	}
	if nack := r.fenceCheck(first.Epoch); nack != nil {
		_ = uc.WriteRoot(nack)
		r.Fence()
		return
	}
	// sentShard tracks the shard-map version this connection has been
	// sent; -1 forces a push in the Hello reply. sentPeers does the same
	// for the root peer list.
	sentShard := -1
	sentPeers := -1
	es, reply := r.admitEdge(first.Hello, conn)
	if es == nil {
		_ = uc.WriteRoot(reply)
		return
	}
	defer r.releaseEdge(es, conn)
	if !r.sendReply(uc, es, reply, &sentShard, &sentPeers) {
		return
	}

	for {
		msg, err := uc.ReadEdge()
		if err != nil {
			if uc.Oversize() {
				r.mu.Lock()
				r.stats.OversizeDropped++
				r.mu.Unlock()
			}
			return
		}
		if nack := r.fenceCheck(msg.Epoch); nack != nil {
			_ = uc.WriteRoot(nack)
			r.Fence()
			return
		}
		var reply *transport.RootMsg
		switch {
		case msg.Hello != nil:
			// A mid-stream re-Hello refreshes the registration (an edge
			// restarted behind a connection that never dropped).
			var es2 *edgeState
			es2, reply = r.admitEdge(msg.Hello, conn)
			if es2 == nil {
				_ = uc.WriteRoot(reply)
				return
			}
			es = es2
		case msg.Batch != nil:
			reply = r.applyBatch(es, msg.Batch)
		case msg.Heartbeat:
			reply = r.heartbeat(es)
		default:
			continue
		}
		if !r.sendReply(uc, es, reply, &sentShard, &sentPeers) {
			return
		}
		if reply.Nack != 0 || reply.Done || reply.Goodbye {
			return
		}
	}
}

// sendReply decorates a reply with the root's fencing epoch and any
// pending shard-map, peer-list or handoff push for this edge, then writes
// it. An undelivered handoff is re-queued so a broken write cannot lose a
// dead peer's filter state.
func (r *Root) sendReply(uc *transport.UpstreamConn, es *edgeState, reply *transport.RootMsg, sentShard, sentPeers *int) bool {
	var handoff []byte
	r.mu.Lock()
	reply.Epoch = r.epoch
	if *sentShard != r.shard.Version && len(r.shard.Edges) > 0 {
		reply.Shards = r.shard.Clone()
		*sentShard = r.shard.Version
	}
	if *sentPeers != r.peersVersion && len(r.peers) > 0 {
		reply.Peers = append([]string(nil), r.peers...)
		reply.PeersVersion = r.peersVersion
		*sentPeers = r.peersVersion
	}
	if reply.Nack == 0 && len(es.handoffs) > 0 {
		handoff = es.handoffs[0]
		es.handoffs = es.handoffs[1:]
		reply.Handoff = handoff
	}
	r.mu.Unlock()

	if err := uc.WriteRoot(reply); err != nil {
		if handoff != nil {
			r.mu.Lock()
			es.handoffs = append([][]byte{handoff}, es.handoffs...)
			r.mu.Unlock()
		}
		return false
	}
	if handoff != nil {
		r.mu.Lock()
		r.stats.HandoffsDelivered++
		r.mu.Unlock()
	}
	return true
}

// admitEdge validates a Hello and registers (or refreshes) the edge. It
// returns a nil edgeState with a Nack reply when the edge is refused.
func (r *Root) admitEdge(h *transport.EdgeHello, conn net.Conn) (*edgeState, *transport.RootMsg) {
	var stale net.Conn
	r.mu.Lock()
	if h.EdgeID < 0 || h.ClientAddr == "" || (h.ModelDim != 0 && h.ModelDim != len(r.eng.Global)) {
		r.stats.NacksSent++
		r.mu.Unlock()
		return nil, &transport.RootMsg{Nack: transport.NackMalformed}
	}
	es, known := r.edges[h.EdgeID]
	if !known {
		es = &edgeState{id: h.EdgeID}
		r.edges[h.EdgeID] = es
		r.stats.EdgesConnected++
	} else {
		r.stats.EdgeReconnects++
	}
	if es.conn != nil && es.conn != conn {
		// A replacement connection supersedes the old one; closing it makes
		// the stale handler exit instead of racing replies.
		stale = es.conn
	}
	es.conn = conn
	es.lastSeen = time.Now()
	addrChanged := es.clientAddr != h.ClientAddr
	es.clientAddr = h.ClientAddr
	if !es.live || addrChanged {
		es.live = true
		r.rebuildShardLocked()
	}
	if len(r.orphans) > 0 {
		// Orphaned snapshots (edges that died with no live survivor) are
		// adopted by the first edge to come back.
		es.handoffs = append(es.handoffs, r.orphans...)
		r.stats.HandoffsQueued += len(r.orphans)
		r.orphans = nil
	}
	reply := &transport.RootMsg{
		Task: &transport.Task{Version: r.eng.Version, Params: vecmath.Clone(r.eng.Global)},
		Ack:  es.lastApplied,
		Done: r.finished,
	}
	r.noteEdgesLiveLocked()
	r.mu.Unlock()

	if stale != nil {
		_ = stale.Close()
	}
	return es, reply
}

// releaseEdge detaches a closing connection from its edge session. The
// session itself — watermark, snapshots, liveness — survives; only the
// lease sweeper (or Close) declares an edge dead.
func (r *Root) releaseEdge(es *edgeState, conn net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if es.conn == conn {
		es.conn = nil
	}
}

// heartbeat renews an edge's lease.
func (r *Root) heartbeat(es *edgeState) *transport.RootMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Heartbeats++
	es.lastSeen = time.Now()
	if r.finished {
		return &transport.RootMsg{Pong: true, Ack: es.lastApplied, Done: true}
	}
	return &transport.RootMsg{Pong: true, Ack: es.lastApplied}
}

// applyBatch applies one edge batch exactly once: ids at or below the
// watermark are answered with a bare ack, anything above it runs an
// engine round over the batch and the root's deferrals and advances the
// watermark (skipped ids are
// accounted as lost). The whole decision runs while holding the round
// slot so two connections replaying the same id cannot both observe the
// pre-apply watermark.
func (r *Root) applyBatch(es *edgeState, b *transport.BatchMsg) *transport.RootMsg {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()

	r.mu.Lock()
	es.lastSeen = time.Now()
	r.stats.UpdatesReceived += len(b.Updates)
	if b.BatchID <= es.lastApplied {
		// Idempotent replay after a link flap or root restart: the batch
		// was already applied, acknowledge without touching the model.
		r.stats.BatchesReplayed++
		reply := &transport.RootMsg{
			Task: &transport.Task{Version: r.eng.Version, Params: vecmath.Clone(r.eng.Global)},
			Ack:  es.lastApplied,
			Done: r.finished,
		}
		r.noteBatch(es.id, "replayed")
		r.mu.Unlock()
		return reply
	}
	if gap := b.BatchID - es.lastApplied - 1; gap > 0 {
		// A forward gap means batches between the watermark and this id are
		// gone for good: the edge shed them while partitioned, or this root
		// restarted without the watermark. Refusing cannot bring them back —
		// accept the batch and account for the loss. (Duplicates are
		// impossible: anything at or below the watermark was already
		// answered as a replay above.)
		r.stats.BatchesLost += int(gap)
	}
	if r.finished {
		reply := &transport.RootMsg{Ack: es.lastApplied, Done: true}
		r.mu.Unlock()
		return reply
	}
	// Retain the edge's filter snapshot for a future handoff before
	// filtering, so even a fully-rejected batch refreshes it.
	if len(b.FilterState) > 0 {
		es.filterState = b.FilterState
	}
	dim := len(r.eng.Global)
	arrivals := make([]*fl.Update, 0, len(b.Updates))
	for _, u := range b.Updates {
		if u == nil || len(u.Delta) != dim {
			r.stats.DroppedMalformed++
			continue
		}
		// Re-base the update on the root's clock so the engine's staleness
		// (Version - BaseVersion) is the edge staleness it arrived with;
		// each round it then spends deferred ages it by one.
		u.BaseVersion = r.eng.Version - u.Staleness
		arrivals = append(arrivals, u)
	}
	rd := r.eng.Drain(arrivals...)
	r.mu.Unlock()

	// Filter and combine run outside r.mu (they are O(batch · dim)); the
	// round slot keeps rounds strictly ordered and the filter quiescent.
	r.eng.Decide(rd)
	for _, err := range rd.Errs {
		log.Printf("topology: root %v", err)
	}

	r.mu.Lock()
	r.eng.Commit(rd)
	es.lastApplied = b.BatchID
	r.stats.Rounds = r.eng.Version
	r.stats.BatchesApplied++
	r.stats.HandlerPanics += rd.Panics
	r.stats.Accepted += len(rd.Accepted)
	r.stats.Deferred += len(rd.Deferred)
	r.stats.Rejected += len(rd.Rejected)
	r.stats.DroppedStale += rd.DroppedStale
	if r.eng.Version >= r.cfg.Rounds && !r.finished {
		r.finished = true
		r.closeDone()
	}
	reply := &transport.RootMsg{
		Task: &transport.Task{Version: r.eng.Version, Params: vecmath.Clone(r.eng.Global)},
		Ack:  es.lastApplied,
		Done: r.finished,
	}
	every := r.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	checkpointDue := r.cfg.CheckpointPath != "" && (r.finished || r.eng.Version%every == 0)
	var rec *transport.ReplRecord
	if r.onCommit != nil {
		rec = r.buildReplRecord(es, b, rd.Delta, len(rd.Accepted), len(rd.Deferred), len(rd.Rejected))
	}
	r.noteBatch(es.id, "applied")
	r.mu.Unlock()

	if err := r.eng.Retire(rd, false); err != nil {
		r.mu.Lock()
		r.stats.HandlerPanics++
		r.mu.Unlock()
		log.Printf("topology: recovered root %v", err)
	}
	if rec != nil {
		// Still holding the round slot: records reach the replication
		// stream in strict version order, and the filter is quiescent for
		// the delta snapshot.
		rec.FilterState, rec.FilterFull = r.filterReplState()
		r.onCommit(rec)
	}
	if checkpointDue {
		r.writeCheckpoint()
	}
	return reply
}

// buildReplRecord assembles the replication record for one applied
// batch; r.mu must be held. The record owns deep copies of everything it
// carries: it outlives the lock and crosses the replication stream to
// another goroutine (and usually another process).
//
//afl:hotpath
func (r *Root) buildReplRecord(es *edgeState, b *transport.BatchMsg, delta []float64, accepted, deferred, rejected int) *transport.ReplRecord {
	//lint:ignore hotalloc the record must own its payload: it escapes to the replication stream, so a fresh struct and a deep-copied delta are the contract
	return &transport.ReplRecord{
		Seq:          uint64(r.eng.Version),
		Epoch:        r.epoch,
		EdgeID:       es.id,
		BatchID:      b.BatchID,
		EdgeAddr:     es.clientAddr,
		ShardVersion: r.shard.Version,
		//lint:ignore hotalloc the delta is cloned because the caller's buffer is reused next round; the record's copy is the durable one
		Delta:    vecmath.Clone(delta),
		Accepted: accepted,
		Deferred: deferred,
		Rejected: rejected,
	}
}

// rebuildShardLocked recomputes the shard map from the live edges and
// bumps its version. Callers hold r.mu.
func (r *Root) rebuildShardLocked() {
	entries := make([]transport.ShardEntry, 0, len(r.edges))
	for _, es := range r.edges {
		if es.live {
			entries = append(entries, transport.ShardEntry{EdgeID: es.id, Addr: es.clientAddr})
		}
	}
	r.shard.Edges = entries
	r.shard.Normalize()
	r.shard.Version++
}

// sweepEdges periodically declares silent edges dead: they leave the
// shard map (clients re-home to the survivors) and their retained filter
// snapshot is queued as a handoff to every surviving edge.
func (r *Root) sweepEdges(stop <-chan struct{}) {
	defer r.wg.Done()
	interval := r.cfg.EdgeLeaseDuration / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-r.done:
			return
		case now := <-ticker.C:
			r.evictExpiredEdges(now)
		}
	}
}

// evictExpiredEdges runs one sweep.
func (r *Root) evictExpiredEdges(now time.Time) {
	var toClose []net.Conn
	r.mu.Lock()
	// Phase one: mark every expired edge dead, so a snapshot is never
	// queued onto a peer that expired in the same sweep (the edges map
	// iterates in random order).
	var evicted []*edgeState
	changed := false
	for _, es := range r.edges {
		if !es.live || now.Sub(es.lastSeen) <= r.cfg.EdgeLeaseDuration {
			continue
		}
		es.live = false
		r.stats.ExpiredEdgeLeases++
		changed = true
		evicted = append(evicted, es)
		if es.conn != nil {
			toClose = append(toClose, es.conn)
			es.conn = nil
		}
	}
	// Phase two: hand each dead edge's snapshot to the survivors. The dead
	// edge's clients scatter across every survivor (clientID modulo live
	// edges changes for all of them), so each survivor inherits the
	// learned group estimates. With no survivor at all the snapshot is
	// parked as an orphan for the next edge to Hello — a total partition
	// must not lose filter state.
	for _, es := range evicted {
		if len(es.filterState) == 0 {
			continue
		}
		queued := false
		for _, peer := range r.edges {
			if peer.live && peer.id != es.id {
				peer.handoffs = append(peer.handoffs, es.filterState)
				r.stats.HandoffsQueued++
				queued = true
			}
		}
		if !queued {
			r.orphans = append(r.orphans, es.filterState)
			r.stats.HandoffsOrphaned++
		}
	}
	if changed {
		r.rebuildShardLocked()
		r.noteEdgesLiveLocked()
	}
	r.mu.Unlock()
	for _, conn := range toClose {
		_ = conn.Close()
	}
}

// noteBatch bumps the per-edge labeled batch counter.
func (r *Root) noteBatch(edgeID int, outcome string) {
	if r.cfg.Obsv == nil {
		return
	}
	name := "afl_root_batches_" + outcome + "_total{edge=" + strconv.Quote(strconv.Itoa(edgeID)) + "}"
	r.cfg.Obsv.Registry.Counter(name).Inc()
}

// noteEdgesLiveLocked mirrors the live-edge count into the registry.
// Callers hold r.mu.
func (r *Root) noteEdgesLiveLocked() {
	if r.cfg.Obsv == nil {
		return
	}
	r.cfg.Obsv.Registry.Gauge("afl_root_edges_live").Set(float64(len(r.shard.Edges)))
}

// rootCkpt is the root's durable state, serialized through the
// internal/checkpoint container. The per-edge watermarks are the piece
// that makes restarts idempotent: an edge replaying batches the previous
// incarnation already applied is answered with a bare ack.
type rootCkpt struct {
	Global       []float64
	Version      int
	Stats        RootStats
	ShardVersion int
	Edges        []edgeCkpt
	Deferred     []*fl.Update
	Orphans      [][]byte
	FilterName   string
	FilterState  []byte
	// Epoch is the fencing epoch (internal/replica). Persisting it is
	// what makes fencing survive restarts: a promoted standby that
	// crashes and comes back must not serve under a pre-promotion epoch.
	Epoch uint64
}

type edgeCkpt struct {
	ID          int
	ClientAddr  string
	LastApplied uint64
	FilterState []byte
	Handoffs    [][]byte
}

// captureCkpt assembles the root's durable state. The caller must hold
// the round slot (the filter must be quiescent); no lock is held across
// the filter snapshot.
func (r *Root) captureCkpt() rootCkpt {
	r.mu.Lock()
	ck := rootCkpt{
		Global:       vecmath.Clone(r.eng.Global),
		Version:      r.eng.Version,
		Stats:        r.stats,
		ShardVersion: r.shard.Version,
		FilterName:   r.filter.Name(),
		Epoch:        r.epoch,
	}
	ck.Deferred = r.deferred.Snapshot().Updates
	ck.Orphans = r.orphans
	for _, es := range r.edges {
		ck.Edges = append(ck.Edges, edgeCkpt{
			ID:          es.id,
			ClientAddr:  es.clientAddr,
			LastApplied: es.lastApplied,
			FilterState: es.filterState,
			Handoffs:    es.handoffs,
		})
	}
	r.mu.Unlock()

	if sf, ok := r.filter.(fl.StateSnapshotter); ok {
		state, err := sf.SnapshotState()
		if err != nil {
			log.Printf("topology: root filter snapshot failed: %v", err)
		} else {
			ck.FilterState = state
		}
	}
	return ck
}

// writeCheckpoint captures and persists the root state. The caller must
// hold the round slot; no lock is held across the file write.
func (r *Root) writeCheckpoint() {
	ck := r.captureCkpt()
	if err := checkpoint.Save(r.cfg.CheckpointPath, &ck); err != nil {
		log.Printf("topology: root checkpoint failed: %v", err)
		return
	}
	r.mu.Lock()
	r.stats.Checkpoints++
	r.mu.Unlock()
}

// restoreFromCheckpoint loads an existing snapshot into a freshly built
// root. A missing file means a fresh deployment; anything else fails
// NewRoot loudly rather than restoring partial state. Restored edges come
// back not-live (they must re-Hello), but keep their watermarks, retained
// filter snapshots and queued handoffs.
func (r *Root) restoreFromCheckpoint(path string) error {
	var ck rootCkpt
	err := checkpoint.Load(path, &ck)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("topology: restore root from %s: %w", path, err)
	}
	if err := r.adoptCkpt(&ck, "restore root from "+path); err != nil {
		return err
	}
	r.mu.Lock()
	r.restored = true
	r.mu.Unlock()
	return nil
}

// adoptCkpt validates a decoded checkpoint and replaces the root's state
// with it — the shared tail of the startup restore and a standby's
// snapshot install. It is all-or-nothing up to the filter restore: the
// filter is only touched after every structural validation passed. The
// caller must guarantee filter quiescence (NewRoot before serving, or
// the round slot held).
func (r *Root) adoptCkpt(ck *rootCkpt, where string) error {
	if len(ck.Global) != len(r.cfg.InitialParams) {
		return fmt.Errorf("topology: %s: checkpoint holds a %d-parameter model, config expects %d",
			where, len(ck.Global), len(r.cfg.InitialParams))
	}
	if ck.Version < 0 {
		return fmt.Errorf("topology: %s: negative version %d", where, ck.Version)
	}
	if ck.FilterName != r.filter.Name() {
		return fmt.Errorf("topology: %s: checkpoint written by filter %q, root runs %q",
			where, ck.FilterName, r.filter.Name())
	}
	if len(ck.FilterState) > 0 {
		sf, ok := r.filter.(fl.StateSnapshotter)
		if !ok {
			return fmt.Errorf("topology: %s: checkpoint carries filter state but filter %q cannot restore it",
				where, r.filter.Name())
		}
		if err := sf.RestoreState(ck.FilterState); err != nil {
			return fmt.Errorf("topology: %s: %w", where, err)
		}
	}
	r.mu.Lock()
	r.eng.Global = vecmath.Clone(ck.Global)
	r.eng.Version = ck.Version
	r.stats = ck.Stats
	r.shard.Version = ck.ShardVersion
	r.deferred.Restore(fl.BufferState{Updates: ck.Deferred})
	r.orphans = ck.Orphans
	r.observeEpochLocked(ck.Epoch)
	r.edges = make(map[int]*edgeState, len(ck.Edges))
	for _, ec := range ck.Edges {
		r.edges[ec.ID] = &edgeState{
			id:          ec.ID,
			clientAddr:  ec.ClientAddr,
			lastApplied: ec.LastApplied,
			filterState: ec.FilterState,
			handoffs:    ec.Handoffs,
		}
	}
	finished := r.eng.Version >= r.cfg.Rounds
	if finished {
		r.finished = true
	}
	r.mu.Unlock()
	if finished {
		r.closeDone()
	}
	return nil
}
