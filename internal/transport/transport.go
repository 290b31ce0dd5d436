// Package transport runs asynchronous federated learning over real TCP
// connections, mirroring the PLATO deployment mode the paper evaluates on:
// a central server accepts WebSocket-style persistent connections from
// remote clients, hands out the current global model, buffers returned
// updates, filters them (AsyncFilter or any fl.Filter) and aggregates.
//
// The wire protocol is the binary frame envelope of wire.go over a
// single long-lived TCP connection per client:
//
//	client -> server: Hello, then Update*
//	server -> client: Task* (new model to train), then Done
//
// The same fl.Filter / fl.Combiner implementations drive both this real
// transport and the in-process simulator, demonstrating the "plug and
// play" property of the filter module.
//
// The layer is hardened for real deployments: per-connection read/write
// deadlines, a max-message-size guard on decode, per-client sessions that
// survive reconnects, a round-progress watchdog that aggregates a partial
// buffer when crashed clients would otherwise stall a round, client-side
// reconnect with exponential backoff (client.go), and a deterministic
// fault-injection harness for tests (fault.go).
//
// On top of that sits an overload-resilience layer: a bounded in-flight
// update budget with per-client token-bucket rate limits and typed NACK
// replies (admission.go), staleness-aware load shedding that evicts the
// stalest buffered updates first when the budget is exceeded, client
// leases renewed by heartbeats with eviction of dead sessions
// (session.go),
// a per-client quarantine circuit breaker for clients whose recent
// submissions were all filter-rejected, and a graceful drain path
// (drain.go) that stops admissions, flushes the in-flight round, writes a
// final checkpoint and sends clients a Goodbye so they can reconnect
// elsewhere.
package transport

import (
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/obsv"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Hello introduces a client to the server.
type Hello struct {
	// ClientID identifies the client (unique per deployment).
	ClientID int
	// NumSamples is the client's local dataset size (aggregation weight).
	NumSamples int
	// ModelDim is the parameter dimension of the client's local model
	// (0 = unknown). A non-zero mismatch against the live global model is
	// rejected at Hello time with a NackMalformed instead of letting the
	// client train a round it can never submit.
	ModelDim int
	// Codec declares the wire codec this client speaks. The server
	// refuses any value other than CodecBinary with NackMalformed.
	Codec Codec
}

// NackCode classifies why the server refused an update.
type NackCode int

// NackCode values.
const (
	// NackRateLimited: the client exceeded its per-client token-bucket
	// rate limit; retry after RetryAfter.
	NackRateLimited NackCode = iota + 1
	// NackOverloaded: the in-flight update budget is full and the update
	// was the stalest candidate, so staleness-aware shedding dropped it.
	NackOverloaded
	// NackQuarantined: the client's recent submissions were all
	// filter-rejected and its circuit breaker is open; RetryAfter is the
	// remaining cooldown.
	NackQuarantined
	// NackDraining: the server is draining and admits no new work.
	NackDraining
	// NackMalformed: the Hello advertised a model dimension that does not
	// match the live global model.
	NackMalformed
	// NackFenced: the sender's fencing epoch proves a newer primary has
	// been promoted; the receiving root is stale and demotes itself
	// rather than split-braining the filter state (internal/replica).
	NackFenced
	// NackNotPrimary: a standby-attach reached a replica-group member
	// that is not the primary (every member answers on the replication
	// listener so vote exchanges can reach it). The dialer rotates to the
	// next peer; deliberately not a lease-refreshing reply, so a mesh of
	// leaderless standbys still expires its leases and elects.
	NackNotPrimary
)

// String implements fmt.Stringer.
func (c NackCode) String() string {
	switch c {
	case NackRateLimited:
		return "rate-limited"
	case NackOverloaded:
		return "overloaded"
	case NackQuarantined:
		return "quarantined"
	case NackDraining:
		return "draining"
	case NackMalformed:
		return "malformed"
	case NackFenced:
		return "fenced"
	case NackNotPrimary:
		return "not-primary"
	default:
		return fmt.Sprintf("NackCode(%d)", int(c))
	}
}

// Task carries the global model to train on.
type Task struct {
	// Version is the global model version.
	Version int
	// Params is the flat global parameter vector.
	Params []float64
}

// UpdateMsg carries a trained delta back to the server.
type UpdateMsg struct {
	// BaseVersion is the model version the delta was trained from.
	BaseVersion int
	// Delta is the flat parameter delta.
	Delta []float64
}

// ClientMsg is the client->server envelope.
type ClientMsg struct {
	Hello  *Hello
	Update *UpdateMsg
	// Heartbeat keeps the client's lease alive while it is busy with
	// local training or backing off from a NACK; the server renews the
	// lease and answers with Pong.
	Heartbeat bool
}

// ServerMsg is the server->client envelope. Exactly one reply is sent per
// client message: Pong answers a Heartbeat, Task (optionally carrying a
// Nack in the same envelope) answers an Update, and Done or Goodbye ends
// the conversation.
type ServerMsg struct {
	Task *Task
	// Nack, when non-zero, reports that the client's update (or Hello)
	// was refused and why; a Task in the same envelope still carries the
	// current model so the client can resume after backing off.
	Nack NackCode
	// RetryAfter is the server's pacing hint for a Nack (0 = client's
	// choice).
	RetryAfter time.Duration
	// Pong acknowledges a Heartbeat (the lease was renewed).
	Pong bool
	// Done signals that training is complete and the client should exit.
	Done bool
	// Goodbye signals that this server is draining: the client should
	// drop the connection and reconnect elsewhere.
	Goodbye bool
	// Shards, when non-nil, is the current client-facing shard address
	// list of a hierarchical deployment, sorted by edge id. A client
	// re-homes to Shards[clientID % len(Shards)] when its edge says
	// Goodbye or stops answering. Pushed once per connection and again
	// whenever the list changes (see ShardVersion); single-server
	// deployments never set it.
	Shards []string
	// ShardVersion versions the Shards push; receivers ignore pushes not
	// newer than what they hold.
	ShardVersion int
}

// ServerConfig parameterizes a transport server.
type ServerConfig struct {
	// InitialParams seeds the global model.
	InitialParams []float64
	// AggregationGoal triggers aggregation when the buffer reaches it.
	AggregationGoal int
	// StalenessLimit discards updates staler than this (0 disables).
	StalenessLimit int
	// Rounds is the number of aggregations before the server completes.
	Rounds int
	// Aggregator configures aggregation weighting.
	Aggregator fl.AggregatorConfig
	// ReadTimeout bounds each blocking read from a client connection: a
	// client that goes silent for longer is disconnected (0 disables).
	// It must cover the client's local training time plus think time.
	ReadTimeout time.Duration
	// WriteTimeout bounds each task transmission to a client (0 disables).
	WriteTimeout time.Duration
	// MaxMessageBytes caps the size of a single decoded client message so
	// a malicious client cannot exhaust server memory with a giant delta
	// (0 disables the guard).
	MaxMessageBytes int64
	// RoundTimeout arms the round-progress watchdog: when the buffer has
	// held at least one update but stayed below the aggregation goal for
	// this long, the server aggregates the partial buffer instead of
	// waiting forever on crashed or wedged clients (0 disables).
	RoundTimeout time.Duration
	// CheckpointPath, when non-empty, makes the server state durable: a
	// snapshot of the global model, round counter, lifetime stats, pending
	// buffer, client sessions and filter state is written atomically to
	// this path during aggregation and on graceful Close, and NewServer
	// restores from an existing snapshot at startup so a restarted server
	// resumes the deployment instead of silently starting over at round 0.
	CheckpointPath string
	// CheckpointEvery writes a snapshot after every N aggregations (<= 0
	// selects 1, i.e. every aggregation). The final aggregation and
	// graceful Close always checkpoint regardless of N. Only meaningful
	// with CheckpointPath.
	CheckpointEvery int
	// MaxPendingUpdates bounds the in-flight update budget: the buffer
	// never holds more than this many updates (0 disables). When a new
	// update would exceed the budget the stalest buffered updates are
	// shed to make room — unless the incoming update is itself the
	// stalest candidate, in which case it is refused with NackOverloaded.
	// Must be >= AggregationGoal when set, or the goal could never be
	// reached.
	MaxPendingUpdates int
	// ClientRateLimit caps each client's sustained update rate in
	// updates/second via a per-session token bucket (0 disables). Updates
	// over budget are refused with NackRateLimited and a RetryAfter
	// pacing hint.
	ClientRateLimit float64
	// ClientBurst is the token-bucket capacity (<= 0 selects 1). Only
	// meaningful with ClientRateLimit.
	ClientBurst int
	// LeaseDuration arms client leases: every message from a client
	// renews its session lease for this long, and a lease sweeper evicts
	// sessions whose lease expired — closing their connection and freeing
	// their in-flight accounting — so a client that dies without a TCP
	// reset is noticed within a lease period (0 disables). Clients should
	// heartbeat at a fraction of this interval.
	LeaseDuration time.Duration
	// QuarantineAfter opens a per-client circuit breaker after this many
	// consecutive filter-rejected submissions: further updates from the
	// client are refused with NackQuarantined until QuarantineCooldown
	// passes, then a single half-open probe update is admitted — an
	// accepted probe closes the breaker, a rejected one re-opens it
	// (0 disables).
	QuarantineAfter int
	// QuarantineCooldown is how long a quarantined client is refused
	// before the half-open probe (<= 0 selects 30s). Only meaningful with
	// QuarantineAfter.
	QuarantineCooldown time.Duration
	// Obsv, when non-nil, attaches the observability layer: server stats
	// are mirrored into the hub's registry on every scrape, admission
	// NACKs / round latencies / buffer occupancy become metrics, and
	// filter decisions stream into the hub's tracer when the filter
	// supports observation. Purely observational — enabling it changes
	// no aggregation outcome.
	Obsv *obsv.Hub
	// OnRoundCommitted, when non-nil, is called after every committed
	// aggregation round with the new model version and the updates the
	// filter accepted into it. It runs outside the server lock while the
	// round slot is still held (the filter is quiescent), in strict round
	// order. Ownership of the slice and the updates transfers to the
	// callback — the server never touches them again — which is what lets
	// a hierarchical edge forward them upstream without copying. A panic
	// in the callback is recovered and counted in HandlerPanics.
	OnRoundCommitted func(version int, accepted []*fl.Update)
}

// Validate checks the configuration.
func (c *ServerConfig) Validate() error {
	if len(c.InitialParams) == 0 {
		return errors.New("transport: ServerConfig: empty InitialParams")
	}
	if c.AggregationGoal < 1 {
		return fmt.Errorf("transport: ServerConfig: AggregationGoal = %d, need >= 1", c.AggregationGoal)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("transport: ServerConfig: Rounds = %d, need >= 1", c.Rounds)
	}
	if c.StalenessLimit < 0 {
		return fmt.Errorf("transport: ServerConfig: StalenessLimit = %d, need >= 0", c.StalenessLimit)
	}
	if c.ReadTimeout < 0 || c.WriteTimeout < 0 || c.RoundTimeout < 0 {
		return errors.New("transport: ServerConfig: negative timeout")
	}
	if c.MaxMessageBytes < 0 {
		return fmt.Errorf("transport: ServerConfig: MaxMessageBytes = %d, need >= 0", c.MaxMessageBytes)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("transport: ServerConfig: CheckpointEvery = %d, need >= 0", c.CheckpointEvery)
	}
	if c.MaxPendingUpdates < 0 {
		return fmt.Errorf("transport: ServerConfig: MaxPendingUpdates = %d, need >= 0", c.MaxPendingUpdates)
	}
	if c.MaxPendingUpdates > 0 && c.MaxPendingUpdates < c.AggregationGoal {
		return fmt.Errorf("transport: ServerConfig: MaxPendingUpdates = %d below AggregationGoal = %d (the goal could never be reached)",
			c.MaxPendingUpdates, c.AggregationGoal)
	}
	if c.ClientRateLimit < 0 {
		return fmt.Errorf("transport: ServerConfig: ClientRateLimit = %v, need >= 0", c.ClientRateLimit)
	}
	if c.LeaseDuration < 0 {
		return errors.New("transport: ServerConfig: negative LeaseDuration")
	}
	if c.QuarantineAfter < 0 {
		return fmt.Errorf("transport: ServerConfig: QuarantineAfter = %d, need >= 0", c.QuarantineAfter)
	}
	return nil
}

// Server is the asynchronous FL aggregation server. Create with NewServer,
// start with Serve, wait on Done.
type Server struct {
	cfg    ServerConfig
	filter fl.Filter

	// arena recycles update-delta vectors and Update structs across the
	// receive -> buffer -> filter -> round-commit pipeline. Deltas
	// decoded from the binary wire are arena-backed; ownership transfers
	// through receiveUpdate and Buffer.Add, and the engine returns an
	// update's memory here when the round that drained it retires.
	arena *fl.Arena

	mu sync.Mutex
	// eng runs the aggregation rounds and owns the global model and its
	// version (eng.Global, eng.Version); buffer is its update buffer.
	// Both are guarded by mu.
	eng      *fl.Engine
	buffer   *fl.Buffer
	finished bool
	// killed marks a Close that ended the deployment before its rounds
	// completed: handlers then hang up instead of replying Done, so
	// clients reconnect (to a restarted server) rather than exit.
	killed       bool
	restored     bool
	draining     bool
	netClosed    bool
	stats        ServerStats
	sessions     map[int]*clientSession
	conns        map[net.Conn]struct{}
	lastProgress time.Time
	// shardAddrs / shardVersion hold the latest SetShardAddrs push;
	// handlers piggyback the list on task replies when their last-sent
	// version is stale.
	shardAddrs   []string
	shardVersion int
	// shedObserver, when non-nil, is invoked (outside s.mu) with the
	// server version at shed time and the evicted updates. Test-only
	// hook for asserting the stalest-first shedding invariant.
	shedObserver func(version int, shed []*fl.Update)
	// obs holds the event-driven metric handles when ServerConfig.Obsv
	// is set; nil otherwise (all methods are nil-receiver safe).
	obs *serverObs
	// aggregating marks an aggregation round in flight. Rounds run the
	// filter and combiner *outside* s.mu (they are O(buffer · dim) and
	// must not stall every connection handler); the flag serializes rounds
	// so filter state still sees a strict round order.
	aggregating bool
	// aggDone (on mu) is broadcast when aggregating falls back to false;
	// Close waits on it so the final checkpoint includes the in-flight
	// round.
	aggDone *sync.Cond

	done         chan struct{}
	listener     net.Listener
	wg           sync.WaitGroup
	watchdog     sync.Once
	leaseSweeper sync.Once
	drainOnce    sync.Once
	// drained is closed when a Drain sequence has finished its flush and
	// final checkpoint (possibly after the Drain call itself timed out).
	drained chan struct{}
}

// ServerStats summarizes a finished deployment.
type ServerStats struct {
	// Rounds is the number of aggregations performed.
	Rounds int
	// Accepted, Deferred, Rejected count filter decisions.
	Accepted, Deferred, Rejected int
	// DroppedStale counts updates discarded for staleness.
	DroppedStale int
	// DroppedMalformed counts updates discarded for a dimension mismatch
	// with the global model.
	DroppedMalformed int
	// DroppedOversize counts client messages rejected by the
	// MaxMessageBytes guard (the connection is closed).
	DroppedOversize int
	// UpdatesReceived counts all updates that reached the server.
	UpdatesReceived int
	// WatchdogRounds counts aggregations forced by the round-progress
	// watchdog on a partial buffer.
	WatchdogRounds int
	// ClientsConnected counts distinct client IDs that completed a Hello.
	ClientsConnected int
	// Reconnects counts Hello messages from already-known client IDs.
	Reconnects int
	// HandlerPanics counts panics recovered in connection handlers, the
	// round watchdog and the filter — faults that are now isolated to the
	// offending goroutine or round instead of killing the deployment.
	HandlerPanics int
	// Checkpoints counts state snapshots successfully written.
	Checkpoints int
	// DroppedShed counts updates evicted by staleness-aware load
	// shedding: the stalest buffered updates (or an incoming update that
	// was itself the stalest candidate) dropped to keep the buffer within
	// MaxPendingUpdates.
	DroppedShed int
	// DroppedRateLimited counts updates refused by the per-client
	// token-bucket rate limit.
	DroppedRateLimited int
	// DroppedQuarantined counts updates refused from quarantined clients.
	DroppedQuarantined int
	// QuarantinedClients counts circuit-breaker openings (a client
	// re-quarantined after a failed half-open probe counts again).
	QuarantinedClients int
	// ExpiredLeases counts sessions evicted by the lease sweeper because
	// the client stopped sending (updates or heartbeats) for a full
	// LeaseDuration.
	ExpiredLeases int
	// Heartbeats counts heartbeat messages received (each renews a lease
	// and is answered with a Pong).
	Heartbeats int
	// NacksSent counts typed NACK replies sent to clients.
	NacksSent int
}

// NewServer builds a server. filter nil selects pass-through (FedBuff);
// combiner nil selects the weighted mean.
func NewServer(cfg ServerConfig, filter fl.Filter, combiner fl.Combiner) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if filter == nil {
		filter = fl.Passthrough{}
	}
	buffer, err := fl.NewBuffer(cfg.AggregationGoal, cfg.StalenessLimit)
	if err != nil {
		return nil, err
	}
	arena := fl.NewArena(len(cfg.InitialParams))
	s := &Server{
		cfg:      cfg,
		filter:   filter,
		arena:    arena,
		eng:      fl.NewEngine(vecmath.Clone(cfg.InitialParams), buffer, filter, combiner, cfg.Aggregator, arena),
		buffer:   buffer,
		sessions: make(map[int]*clientSession),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
		drained:  make(chan struct{}),
	}
	s.aggDone = sync.NewCond(&s.mu)
	if cfg.CheckpointPath != "" {
		if err := s.restoreFromCheckpoint(cfg.CheckpointPath); err != nil {
			return nil, err
		}
	}
	// Observability wires up after any restore so the sinks observe the
	// live buffer and filter rather than pre-restore instances.
	if cfg.Obsv != nil {
		s.wireObsv(cfg.Obsv)
	}
	return s, nil
}

// Serve accepts client connections on lis until the configured number of
// rounds completes or Close is called. It returns after the accept loop
// exits and all client handlers have drained.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.listener = lis
	s.lastProgress = time.Now()
	s.mu.Unlock()
	// stop ends the watchdog when Serve exits for any reason, including
	// accept errors that happen before the deployment completes.
	stop := make(chan struct{})
	if s.cfg.RoundTimeout > 0 {
		s.watchdog.Do(func() {
			s.wg.Add(1)
			go s.watchRounds(stop)
		})
	}

	if s.cfg.LeaseDuration > 0 {
		s.leaseSweeper.Do(func() {
			s.wg.Add(1)
			go s.watchLeases(stop)
		})
	}

	var serveErr error
	for serveErr == nil {
		conn, err := lis.Accept()
		if err != nil {
			// Closed listener means shutdown (normal path).
			select {
			case <-s.done:
			default:
				serveErr = fmt.Errorf("transport: accept: %w", err)
			}
			break
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
	close(stop)
	s.wg.Wait()
	return serveErr
}

// ListenAndServe listens on addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	return s.Serve(lis)
}

// Addr returns the listener address (empty before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Done is closed when the configured rounds have completed.
func (s *Server) Done() <-chan struct{} { return s.done }

// Finish marks the deployment complete without tearing the network down:
// connected clients receive Done on their next task request and exit
// cleanly instead of burning reconnect budgets against a closed socket,
// and no further aggregation round starts. Serve keeps accepting until
// Close. An edge server calls this when its root declares the fleet-wide
// deployment done.
func (s *Server) Finish() {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		close(s.done)
	}
	s.mu.Unlock()
}

// Close stops accepting connections, disconnects all clients and unblocks
// Serve. It waits for any in-flight aggregation round to commit, then —
// when checkpointing is configured — writes a final snapshot of the
// resulting state, so a graceful shutdown is always resumable. Setting
// finished first guarantees no new round starts while Close waits. A
// deployment that had not completed tells no client it is done: their
// connections just drop.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.finished {
		s.finished = true
		s.killed = true
		close(s.done)
	}
	for s.aggregating {
		s.aggDone.Wait()
	}
	var snap *serverSnapshot
	// A draining server's final checkpoint belongs to the drain sequence,
	// which also snapshots the filter; capturing here too would race it.
	if s.cfg.CheckpointPath != "" && !s.draining {
		snap = s.captureSnapshotLocked()
	}
	s.mu.Unlock()

	if snap != nil {
		s.writeSnapshot(snap)
	}
	return s.closeNetwork()
}

// closeNetwork tears down the listener and every live connection exactly
// once; later calls are no-ops returning nil, so Close after Drain does
// not report a spuriously double-closed listener.
func (s *Server) closeNetwork() error {
	s.mu.Lock()
	if s.netClosed {
		s.mu.Unlock()
		return nil
	}
	s.netClosed = true
	lis := s.listener
	open := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		open = append(open, conn)
	}
	s.mu.Unlock()

	var err error
	if lis != nil {
		err = lis.Close()
	}
	for _, conn := range open {
		_ = conn.Close()
	}
	return err
}

// FinalParams returns a copy of the current global parameters.
func (s *Server) FinalParams() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return vecmath.Clone(s.eng.Global)
}

// Version returns the current global model version.
func (s *Server) Version() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Version
}

// Stats returns the lifetime counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Restored reports whether NewServer resumed this server's state from an
// existing checkpoint.
func (s *Server) Restored() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored
}

// recoverPanic absorbs a panic in a server goroutine, logging the stack
// and counting it in HandlerPanics. A malformed or adversarial message
// that panics one connection handler must take down that connection only,
// never the deployment. Callers must not hold s.mu when the deferred call
// runs.
func (s *Server) recoverPanic(where string) {
	if r := recover(); r != nil {
		s.mu.Lock()
		s.stats.HandlerPanics++
		s.mu.Unlock()
		log.Printf("transport: recovered %s panic: %v\n%s", where, r, debug.Stack())
	}
}

// handle drives one client connection. The recover guard isolates panics
// (a crafted payload that panics the decoder, or a misbehaving filter
// reached through receiveUpdate) to this connection.
func (s *Server) handle(conn net.Conn) {
	defer s.recoverPanic("handler")
	defer conn.Close()
	if !s.trackConn(conn) {
		return
	}
	defer s.untrackConn(conn)

	// The Hello's read also checks the connection preamble, under the
	// same read deadline.
	s.armRead(conn)
	wire := &serverWire{bin: newAcceptor(conn, s.cfg.MaxMessageBytes), srv: s}
	hello, err := wire.readMsg()
	if errors.Is(err, ErrBadPreamble) {
		// Another protocol or codec version: there is nothing to reply
		// in, so the connection just closes.
		s.mu.Lock()
		s.stats.DroppedMalformed++
		s.mu.Unlock()
		return
	}
	if err != nil || hello.hello == nil {
		if hello.hello == nil && s.isDraining() {
			// The read was nudged awake by a starting drain (or the
			// stream broke mid-drain): say Goodbye so the client stops
			// retrying against a server on its way out.
			s.farewell(conn, wire)
		}
		return
	}
	if hello.hello.Codec != CodecBinary || !s.admitHello(hello.hello) {
		// The declared codec is not the one this server speaks, or the
		// advertised model dimension cannot match this deployment:
		// refuse at Hello time instead of letting the client train a
		// round it can never submit.
		if hello.hello.Codec != CodecBinary {
			s.mu.Lock()
			s.stats.DroppedMalformed++
			s.stats.NacksSent++
			s.mu.Unlock()
		}
		s.obs.noteNack(NackMalformed)
		s.send(conn, wire, &ServerMsg{Nack: NackMalformed})
		return
	}
	sess := s.register(hello.hello, conn)
	defer s.release(sess, conn)
	if s.isDraining() {
		// A client connecting (or reconnecting) into a drain gets a
		// polite redirect instead of silence.
		s.farewell(conn, wire)
		return
	}

	// sentShard tracks which shard-list version this connection has been
	// sent; -1 forces a push in the first task envelope when a list exists.
	sentShard := -1

	// Send the initial task.
	if !s.sendTask(conn, wire, &sentShard) {
		if s.isDraining() {
			s.linger(conn, wire)
		}
		return
	}
	for {
		s.armRead(conn)
		// Checked between arming and decoding on purpose: a drain that
		// begins before this check is seen here, and one that begins
		// after it re-arms the deadline to "now" (Drain nudges every
		// live connection), so a handler can never sit out a drain
		// blocked in Decode waiting for a client that is busy training.
		if s.isDraining() {
			s.farewell(conn, wire)
			return
		}
		msg, err := wire.readMsg()
		if err != nil {
			if wire.oversize() {
				s.mu.Lock()
				s.stats.DroppedOversize++
				s.mu.Unlock()
				return
			}
			if s.isDraining() {
				s.farewell(conn, wire)
			}
			return
		}
		if msg.heartbeat {
			if !s.heartbeat(sess) {
				s.farewell(conn, wire)
				return
			}
			if !s.send(conn, wire, &ServerMsg{Pong: true}) {
				return
			}
			continue
		}
		if !msg.hasUpdate {
			continue
		}
		verdict := s.receiveUpdate(sess, msg.baseVersion, msg.delta)
		if verdict.goodbye {
			s.farewell(conn, wire)
			return
		}
		if verdict.nack != 0 {
			s.obs.noteNack(verdict.nack)
			// The refusal and the current model travel in one envelope:
			// the client backs off for RetryAfter, then resumes from the
			// fresh task, keeping the protocol strictly request-reply.
			if !s.sendTaskNack(conn, wire, verdict.nack, verdict.retryAfter, &sentShard) {
				if s.isDraining() {
					s.linger(conn, wire)
				}
				return
			}
			continue
		}
		if !s.sendTask(conn, wire, &sentShard) {
			if s.isDraining() {
				s.linger(conn, wire)
			}
			return
		}
	}
}

// admitHello reports whether a Hello's advertised model dimension is
// compatible with the live global model (0 = not advertised, accepted).
func (s *Server) admitHello(h *Hello) bool {
	if h.ModelDim == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h.ModelDim == len(s.eng.Global) {
		return true
	}
	s.stats.DroppedMalformed++
	s.stats.NacksSent++
	return false
}

// isDraining reports whether Drain has stopped admissions.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// heartbeat renews a session's lease. It reports false when the server is
// draining, in which case the caller should say Goodbye.
func (s *Server) heartbeat(sess *clientSession) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Heartbeats++
	if s.draining {
		return false
	}
	if s.cfg.LeaseDuration > 0 {
		sess.leaseExpiry = time.Now().Add(s.cfg.LeaseDuration)
	}
	return true
}

// send transmits one server message under the write deadline, reporting
// whether the connection is still usable. Never called with s.mu held.
func (s *Server) send(conn net.Conn, wire *serverWire, msg *ServerMsg) bool {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	return wire.writeMsg(msg) == nil
}

// armRead refreshes the read deadline before a blocking decode.
func (s *Server) armRead(conn net.Conn) {
	if s.cfg.ReadTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
	}
}

// drainLinger bounds how long a handler keeps a connection open after a
// drain Goodbye so the peer can read it before the socket dies. Closing
// immediately would race the client's next in-flight write: data arriving
// on a closed socket triggers a TCP reset, which discards the queued
// farewell from the peer's receive buffer and turns a polite redirect
// into a reconnect storm against a dead address.
const drainLinger = 5 * time.Second

// farewell sends a drain Goodbye and lingers until the client has read it
// and closed its end. In the lock-step protocol the queued Goodbye
// answers the client's next request, so in-flight requests are decoded
// and discarded here rather than replied to twice. The current shard list
// (if any) rides along so a redirected client knows where "elsewhere" is.
func (s *Server) farewell(conn net.Conn, wire *serverWire) {
	s.mu.Lock()
	shards := append([]string(nil), s.shardAddrs...)
	sv := s.shardVersion
	s.mu.Unlock()
	if s.send(conn, wire, &ServerMsg{Goodbye: true, Shards: shards, ShardVersion: sv}) {
		s.linger(conn, wire)
	}
}

// linger drains and discards a connection's remaining inbound messages
// until the peer closes (typically right after reading a Goodbye already
// on the wire), the linger budget runs out, or drain teardown closes the
// socket.
func (s *Server) linger(conn net.Conn, wire *serverWire) {
	_ = conn.SetReadDeadline(time.Now().Add(drainLinger))
	for {
		msg, err := wire.readMsg()
		if err != nil {
			return
		}
		// Discarded request: recycle an update's arena-backed delta.
		if msg.hasUpdate {
			s.arena.PutVec(msg.delta)
		}
	}
}

// sendTask transmits the latest model, or Done/Goodbye when training
// finished. It reports whether the connection should stay open. sentShard
// is the handler's shard-push cursor (see shardPushLocked).
func (s *Server) sendTask(conn net.Conn, wire *serverWire, sentShard *int) bool {
	return s.sendTaskNack(conn, wire, 0, 0, sentShard)
}

// sendTaskNack transmits an optional NACK together with the latest model
// in one envelope (or Done/Goodbye when the deployment ended). It reports
// whether the connection should stay open.
func (s *Server) sendTaskNack(conn net.Conn, wire *serverWire, nack NackCode, retryAfter time.Duration, sentShard *int) bool {
	s.mu.Lock()
	finished := s.finished
	draining := s.draining
	killed := s.killed
	task := Task{Version: s.eng.Version, Params: vecmath.Clone(s.eng.Global)}
	shards, sv := s.shardPushLocked(sentShard)
	s.mu.Unlock()
	if killed && !draining {
		return false
	}
	if finished || draining {
		s.send(conn, wire, &ServerMsg{Done: finished && !draining, Goodbye: draining, Shards: shards, ShardVersion: sv})
		return false
	}
	return s.send(conn, wire, &ServerMsg{Task: &task, Nack: nack, RetryAfter: retryAfter, Shards: shards, ShardVersion: sv})
}

// forceMode distinguishes why an aggregation round was forced below the
// aggregation goal (or not forced at all).
type forceMode int

const (
	// forceNone aggregates only when the buffer is Ready.
	forceNone forceMode = iota
	// forceWatchdog is a round-progress watchdog round on a partial
	// buffer (counted in WatchdogRounds).
	forceWatchdog
	// forceDrain is the final flush of a graceful drain.
	forceDrain
)

// maybeAggregate runs engine rounds while the buffer is ready (or once
// unconditionally when forced by the watchdog or a drain). Drain and
// Commit run under s.mu; Decide — the filter and the combiner, which are
// O(buffer · dim) — and Retire run *outside* it:
// holding the lock across them would serialize every connection handler
// behind the round and let a stalled filter wedge heartbeats and
// shutdown. Rounds themselves stay strictly ordered: the aggregating flag
// admits one round at a time, and a round that commits while the buffer
// is ready again loops rather than handing off.
func (s *Server) maybeAggregate(force forceMode) {
	forced := force != forceNone
	s.mu.Lock()
	if s.aggregating || s.finished {
		// An in-flight round re-checks readiness when it commits, so a
		// ready buffer is never stranded.
		s.mu.Unlock()
		return
	}
	if !forced && !s.buffer.Ready() {
		s.mu.Unlock()
		return
	}
	if force == forceWatchdog && s.buffer.Len() > 0 {
		s.stats.WatchdogRounds++
	}
	s.aggregating = true
	for {
		rd := s.eng.Drain()
		if len(rd.Updates) == 0 {
			break
		}
		s.mu.Unlock()

		roundStart := time.Now()
		s.eng.Decide(rd)
		for _, err := range rd.Errs {
			log.Printf("transport: %v", err)
		}

		s.mu.Lock()
		s.eng.Commit(rd)
		s.stats.HandlerPanics += rd.Panics
		s.stats.Accepted += len(rd.Accepted)
		s.stats.Deferred += len(rd.Deferred)
		s.stats.Rejected += len(rd.Rejected)
		s.stats.DroppedStale += rd.DroppedStale
		s.noteFilterOutcomesLocked(rd.Accepted, rd.Rejected)
		s.stats.Rounds = s.eng.Version
		s.lastProgress = time.Now()
		if s.eng.Version >= s.cfg.Rounds && !s.finished {
			s.finished = true
			close(s.done)
		}
		var snap *serverSnapshot
		if s.shouldCheckpointLocked() {
			snap = s.captureSnapshotLocked()
		}
		s.mu.Unlock()

		// Observer, commit hook and checkpoint run unlocked too: the
		// aggregating flag keeps the filter quiescent, so ObserveRound,
		// OnRoundCommitted and SnapshotState see exactly this round's
		// state, in order. Retiring the round recycles its rejected
		// updates, and its accepted ones unless OnRoundCommitted takes
		// ownership of them (hierarchical edges forward them upstream).
		s.obs.roundCommitted(rd.Number, time.Since(roundStart),
			len(rd.Updates), len(rd.Accepted), len(rd.Deferred), len(rd.Rejected))
		if err := s.eng.Retire(rd, s.cfg.OnRoundCommitted != nil); err != nil {
			s.mu.Lock()
			s.stats.HandlerPanics++
			s.mu.Unlock()
			log.Printf("transport: recovered %v", err)
		}
		if s.cfg.OnRoundCommitted != nil {
			s.notifyRoundCommitted(rd.Number, rd.Accepted)
		}
		if snap != nil {
			s.writeSnapshot(snap)
		}

		s.mu.Lock()
		if s.finished || !s.buffer.Ready() {
			break
		}
	}
	s.aggregating = false
	s.aggDone.Broadcast()
	s.mu.Unlock()
}

// notifyRoundCommitted hands a committed round's accepted updates to the
// configured OnRoundCommitted callback behind the same recover guard as
// the other unlocked round-commit work: a panicking callback must not
// leave the aggregating flag set. Runs without s.mu held.
func (s *Server) notifyRoundCommitted(version int, accepted []*fl.Update) {
	defer s.recoverPanic("round-commit callback")
	s.cfg.OnRoundCommitted(version, accepted)
}
