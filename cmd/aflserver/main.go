// Command aflserver runs a real asynchronous federated learning
// aggregation server over TCP, optionally guarded by AsyncFilter. Clients
// connect with the aflclient command.
//
// Usage:
//
//	aflserver -listen :9000 -dataset mnist -rounds 20 -goal 8
//	aflserver -listen :9000 -defense fedbuff    # undefended baseline
//	aflserver -listen :9000 -checkpoint srv.ckpt  # durable, crash-recoverable
//
// Two-tier topology (DESIGN.md §12): -role root runs the top-tier
// aggregator that edge servers report to; -role edge runs an edge
// aggregator that admits clients, filters locally and forwards batches
// to -root-addr. Edges ride out a dead root in degraded mode (bounded
// buffering, /healthz says "degraded"), and a checkpointed root
// (-checkpoint) can be killed and restarted without double-counting:
//
//	aflserver -role root -listen :9100 -rounds 40 -edge-lease 5s
//	aflserver -role edge -listen :9000 -root-addr host:9100 -edge-id 0
//	aflserver -role edge -listen :9001 -root-addr host:9100 -edge-id 1
//
// Replicated root (DESIGN.md §13): -repl-listen accepts standbys on the
// replication channel, -replica-of runs this root as a standby of the
// given primary, and -peers lists every replica's edge-facing address so
// edges re-home after a failover. A standby whose primary stays silent
// for -replica-lease promotes itself under a new fencing epoch; the old
// primary, if it comes back, is refused by the fleet and demotes:
//
//	aflserver -role root -listen :9100 -repl-listen :9200 -peers host:9100,host:9101
//	aflserver -role root -listen :9101 -replica-of host:9200 -repl-listen :9201 \
//	    -replica-id 1 -peers host:9100,host:9101
//
// With -replica-peers (the replication addresses of every OTHER group
// member) promotion switches from bare lease expiry to quorum elections:
// an expired standby becomes a candidate and only serves after a
// majority of the group durably grants its epoch, so a minority
// partition can never produce a second primary. -replica-quorum
// overrides the majority size and -vote-ledger persists the node's vote
// so a crash-restarted voter cannot grant the same epoch twice:
//
//	aflserver -role root -listen :9101 -replica-of host:9200 -repl-listen :9201 \
//	    -replica-id 1 -replica-peers host:9200,host:9202 \
//	    -vote-ledger vote1.ckpt -peers host:9100,host:9101,host:9102
//
// With -checkpoint, the server snapshots its full state (global model,
// round counter, filter history, buffered updates, client sessions) to
// the given file, restores from it at startup when it exists, and writes
// a final snapshot before exiting — kill the process and rerun the same
// command to resume the deployment where it stopped.
//
// SIGTERM triggers a graceful drain (bounded by -drain-timeout): clients
// are told Goodbye, the in-flight round commits, the remaining buffer is
// flushed into one final round and the final checkpoint is written.
// SIGINT shuts down immediately (checkpointing current state as-is).
// Overload knobs: -max-pending bounds the buffer (stalest updates are
// shed first), -client-rate/-client-burst rate-limit each client,
// -lease evicts silent clients (clients send heartbeats to stay alive),
// -quarantine-after circuit-breaks clients the filter keeps rejecting.
//
// -obsv-addr serves live introspection over HTTP: /metrics (Prometheus
// text mirroring the server's stats), /trace (recent filter decisions as
// JSON), /healthz (drain/lifecycle state) and /debug/pprof. The listener
// stays up through a drain so the final counters remain scrapeable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	asyncfilter "github.com/asyncfl/asyncfilter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aflserver:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aflserver", flag.ContinueOnError)
	var (
		role    = fs.String("role", "single", "deployment role: single (flat server), edge (forwards to -root-addr) or root (top tier)")
		listen  = fs.String("listen", "127.0.0.1:9000", "listen address")
		preset  = fs.String("dataset", asyncfilter.MNIST, "dataset preset (fixes the model architecture)")
		defense = fs.String("defense", asyncfilter.DefenseAsyncFilter, "asyncfilter or fedbuff")
		goal    = fs.Int("goal", 8, "aggregation goal (buffer size)")
		limit   = fs.Int("staleness-limit", 20, "staleness limit (0 disables)")
		rounds  = fs.Int("rounds", 20, "aggregation rounds before shutdown")
		seed    = fs.Int64("seed", 1, "random seed")

		readTimeout  = fs.Duration("read-timeout", 2*time.Minute, "disconnect a client silent for this long (0 disables)")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "per-task transmission deadline (0 disables)")
		maxMsg       = fs.Int64("max-message-bytes", 64<<20, "cap on a single client message (0 disables)")
		roundTimeout = fs.Duration("round-timeout", time.Minute, "aggregate a partial buffer stalled this long (0 disables)")

		ckptPath  = fs.String("checkpoint", "", "checkpoint file: restore from it at startup, snapshot to it while running (\"\" disables)")
		ckptEvery = fs.Int("checkpoint-every", 1, "snapshot every N aggregation rounds")

		maxPending  = fs.Int("max-pending", 0, "bound on buffered updates; stalest are shed first beyond it (0 disables)")
		clientRate  = fs.Float64("client-rate", 0, "per-client sustained update rate in updates/sec (0 disables)")
		clientBurst = fs.Int("client-burst", 1, "per-client token-bucket burst for -client-rate")
		lease       = fs.Duration("lease", 0, "evict clients silent for this long; heartbeats renew (0 disables)")
		quarAfter   = fs.Int("quarantine-after", 0, "quarantine a client after this many consecutive filter rejections (0 disables)")
		quarCool    = fs.Duration("quarantine-cooldown", 30*time.Second, "refusal window before a quarantined client's half-open probe")

		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM before hard shutdown")

		rootAddr   = fs.String("root-addr", "", "edge role: the root server's address")
		edgeID     = fs.Int("edge-id", 0, "edge role: unique edge id")
		heartbeat  = fs.Duration("heartbeat", 0, "edge role: uplink heartbeat interval (0 = 500ms); keep well below the root's -edge-lease")
		maxBatches = fs.Int("max-pending-batches", 0, "edge role: degraded-mode batch buffer bound (0 = 64)")
		edgeLease  = fs.Duration("edge-lease", 5*time.Second, "root role: evict edges silent this long and hand their filter state to survivors (0 disables failover)")

		replListen = fs.String("repl-listen", "", "root role: replication channel listen address (\"\" disables replication)")
		replicaOf  = fs.String("replica-of", "", "root role: comma-separated primary replication addresses; set to run as a standby")
		peers      = fs.String("peers", "", "root role: comma-separated edge-facing addresses of every replica, relayed to edges for failover re-homing")
		replicaID  = fs.Int("replica-id", 0, "root role: this node's id in the replication group")
		replPeers  = fs.String("replica-peers", "", "root role: comma-separated replication addresses of every other group member; enables quorum elections")
		replQuorum = fs.Int("replica-quorum", 0, "root role: vote grants needed to promote (0 = majority of the group)")
		votePath   = fs.String("vote-ledger", "", "root role: persist this node's vote ledger to this file so a restarted voter cannot double-grant (\"\" keeps it in memory)")
		replLease  = fs.Duration("replica-lease", 2*time.Second, "root role: standby promotes after this much primary silence")
		replBeat   = fs.Duration("replica-heartbeat", 0, "root role: primary's idle replication push interval (0 = lease/4)")

		obsvAddr   = fs.String("obsv-addr", "", "serve /metrics, /trace, /healthz and /debug/pprof on this address (\"\" disables)")
		traceDepth = fs.Int("trace-depth", 0, "filter-decision trace ring size for -obsv-addr (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec, err := asyncfilter.ModelSpecFor(*preset)
	if err != nil {
		return err
	}
	spec.Seed = *seed
	params, err := asyncfilter.InitialParams(spec)
	if err != nil {
		return err
	}

	var filter *asyncfilter.Filter
	switch *defense {
	case asyncfilter.DefenseAsyncFilter:
		filter, err = asyncfilter.NewFilter(asyncfilter.FilterConfig{Seed: *seed})
		if err != nil {
			return err
		}
	case asyncfilter.DefenseFedBuff:
		// nil filter = pass-through
	default:
		return fmt.Errorf("unsupported defense %q for the TCP server (want asyncfilter or fedbuff)", *defense)
	}

	serverCfg := asyncfilter.ServerConfig{
		InitialParams:      params,
		AggregationGoal:    *goal,
		StalenessLimit:     *limit,
		Rounds:             *rounds,
		ReadTimeout:        *readTimeout,
		WriteTimeout:       *writeTimeout,
		MaxMessageBytes:    *maxMsg,
		RoundTimeout:       *roundTimeout,
		CheckpointPath:     *ckptPath,
		CheckpointEvery:    *ckptEvery,
		MaxPendingUpdates:  *maxPending,
		ClientRateLimit:    *clientRate,
		ClientBurst:        *clientBurst,
		LeaseDuration:      *lease,
		QuarantineAfter:    *quarAfter,
		QuarantineCooldown: *quarCool,
		ObsvAddr:           *obsvAddr,
		TraceDepth:         *traceDepth,
	}

	switch *role {
	case "single":
		// fall through to the flat deployment below
	case "edge":
		return runEdge(edgeOptions{
			listen:     *listen,
			rootAddr:   *rootAddr,
			edgeID:     *edgeID,
			heartbeat:  *heartbeat,
			maxBatches: *maxBatches,
			seed:       *seed,
			server:     serverCfg,
			filter:     filter,
		})
	case "root":
		return runRoot(rootOptions{
			listen: *listen,
			filter: filter,
			spec:   spec,
			preset: *preset,
			seed:   *seed,
			cfg: asyncfilter.RootServerConfig{
				InitialParams:     params,
				Rounds:            *rounds,
				StalenessLimit:    *limit,
				ReadTimeout:       *readTimeout,
				WriteTimeout:      *writeTimeout,
				MaxMessageBytes:   *maxMsg,
				EdgeLeaseDuration: *edgeLease,
				CheckpointPath:    *ckptPath,
				CheckpointEvery:   *ckptEvery,
				ObsvAddr:          *obsvAddr,
				TraceDepth:        *traceDepth,
				Replication: replicationConfig(*replListen, *replicaOf, *peers,
					*replPeers, *votePath, *replicaID, *replQuorum,
					*replLease, *replBeat, *maxMsg, *seed),
			},
		})
	default:
		return fmt.Errorf("unknown -role %q (want single, edge or root)", *role)
	}

	server, err := asyncfilter.NewServer(serverCfg, filter)
	if err != nil {
		return err
	}
	if server.Restored() {
		fmt.Printf("aflserver: restored from %s at round %d\n", *ckptPath, server.Version())
	}
	if addr := server.ObsvAddr(); addr != "" {
		fmt.Printf("aflserver: introspection on http://%s (/metrics /trace /healthz /debug/pprof)\n", addr)
	}

	fmt.Printf("aflserver: listening on %s (dataset=%s defense=%s goal=%d rounds=%d)\n",
		*listen, *preset, *defense, *goal, *rounds)
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe(*listen) }()

	// A termination signal triggers a graceful shutdown: Close writes a
	// final checkpoint, so rerunning the same command resumes from here.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		if sig == syscall.SIGTERM {
			// SIGTERM asks for a graceful drain: clients get Goodbye, the
			// in-flight round commits, the buffer flushes into one final
			// round and a final checkpoint lands — all within the budget.
			fmt.Printf("aflserver: SIGTERM at round %d, draining (budget %v)\n", server.Version(), *drainTimeout)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			err := server.Drain(ctx)
			cancel()
			if err != nil {
				fmt.Printf("aflserver: drain cut short: %v\n", err)
			} else {
				stats := server.Stats()
				fmt.Printf("aflserver: drained at round %d (%d clients, %d shed, %d rate-limited, %d checkpoints)\n",
					server.Version(), stats.ClientsConnected, stats.DroppedShed, stats.DroppedRateLimited, stats.Checkpoints)
			}
		} else {
			fmt.Printf("aflserver: %v at round %d, checkpointing and shutting down\n", sig, server.Version())
			if err := server.Close(); err != nil {
				return err
			}
		}
		<-errCh
		return nil
	case <-server.Done():
	}
	stats := server.Stats()
	fmt.Printf("aflserver: completed %d rounds (%d clients, %d reconnects, %d watchdog rounds, %d recovered panics)\n",
		server.Version(), stats.ClientsConnected, stats.Reconnects, stats.WatchdogRounds, stats.HandlerPanics)
	if err := server.Close(); err != nil {
		return err
	}
	if err := <-errCh; err != nil {
		return err
	}

	// Report final test accuracy against the preset's held-out split.
	_, test, err := asyncfilter.GenerateData(*preset, *seed)
	if err != nil {
		return err
	}
	acc, loss, err := asyncfilter.EvaluateParams(server.FinalParams(), spec, test)
	if err != nil {
		return err
	}
	fmt.Printf("aflserver: final accuracy %.2f%% (loss %.4f)\n", 100*acc, loss)
	return nil
}

// edgeOptions carries the parsed flags for -role edge.
type edgeOptions struct {
	listen     string
	rootAddr   string
	edgeID     int
	heartbeat  time.Duration
	maxBatches int
	seed       int64
	server     asyncfilter.ServerConfig
	filter     *asyncfilter.Filter
}

// runEdge serves clients locally and forwards filtered batches to the
// root until a signal arrives or the root declares the deployment done.
func runEdge(opts edgeOptions) error {
	if opts.rootAddr == "" {
		return fmt.Errorf("-role edge requires -root-addr")
	}
	// The root's round budget ends the deployment; the edge's own round
	// flag would cut the uplink short, so Rounds 0 selects unbounded.
	opts.server.Rounds = 0
	edge, err := asyncfilter.NewEdgeServer(asyncfilter.EdgeServerConfig{
		EdgeID:            opts.edgeID,
		RootAddr:          opts.rootAddr,
		Server:            opts.server,
		HeartbeatEvery:    opts.heartbeat,
		MaxPendingBatches: opts.maxBatches,
		Seed:              opts.seed,
	}, opts.filter)
	if err != nil {
		return err
	}
	if addr := edge.ObsvAddr(); addr != "" {
		fmt.Printf("aflserver: edge introspection on http://%s (/healthz reports degraded when the uplink is down)\n", addr)
	}
	fmt.Printf("aflserver: edge %d listening on %s, forwarding to %s (goal=%d)\n",
		opts.edgeID, opts.listen, opts.rootAddr, opts.server.AggregationGoal)
	errCh := make(chan error, 1)
	go func() { errCh <- edge.ListenAndServe(opts.listen) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// The edge has no Done channel of its own: it retires when the root
	// reports the deployment complete, which it learns over the uplink.
	ticker := time.NewTicker(500 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case sig := <-sigCh:
			fmt.Printf("aflserver: edge %d: %v, shutting down\n", opts.edgeID, sig)
			err := edge.Close()
			<-errCh
			return err
		case err := <-errCh:
			_ = edge.Close()
			return err
		case <-ticker.C:
			if edge.RootDone() {
				st := edge.Stats()
				fmt.Printf("aflserver: edge %d done at local round %d (%d batches committed, %d acked, %d shed, %d uplink sessions, %d handoffs merged)\n",
					opts.edgeID, edge.Version(), st.BatchesCommitted, st.BatchesAcked, st.BatchesShed, st.UplinkSessions, st.HandoffsMerged)
				err := edge.Close()
				<-errCh
				return err
			}
		}
	}
}

// replicationConfig assembles the root's replication config from the
// flags; nil (replication disabled) unless -repl-listen or -replica-of
// is set.
func replicationConfig(replListen, replicaOf, peers, votePeers, votePath string, id, quorum int, lease, beat time.Duration, maxMsg int64, seed int64) *asyncfilter.ReplicationConfig {
	if replListen == "" && replicaOf == "" {
		return nil
	}
	return &asyncfilter.ReplicationConfig{
		NodeID:          id,
		ReplListen:      replListen,
		Upstreams:       splitAddrs(replicaOf),
		Peers:           splitAddrs(peers),
		VotePeers:       splitAddrs(votePeers),
		QuorumSize:      quorum,
		VotePath:        votePath,
		Lease:           lease,
		Heartbeat:       beat,
		MaxMessageBytes: maxMsg,
		Seed:            seed,
	}
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// rootOptions carries the parsed flags for -role root.
type rootOptions struct {
	listen string
	preset string
	seed   int64
	spec   asyncfilter.ModelSpec
	filter *asyncfilter.Filter
	cfg    asyncfilter.RootServerConfig
}

// runRoot serves edge aggregators until the configured rounds complete
// or a signal arrives; Close always checkpoints (when configured), so a
// rerun of the same command resumes the deployment.
func runRoot(opts rootOptions) error {
	root, err := asyncfilter.NewRootServer(opts.cfg, opts.filter)
	if err != nil {
		return err
	}
	if root.Restored() {
		fmt.Printf("aflserver: root restored from %s at round %d\n", opts.cfg.CheckpointPath, root.Version())
	}
	if addr := root.ObsvAddr(); addr != "" {
		fmt.Printf("aflserver: root introspection on http://%s (/metrics /trace /healthz /debug/pprof)\n", addr)
	}
	if role := root.Role(); role != "" {
		fmt.Printf("aflserver: root replication role=%s epoch=%d repl-listen=%s\n", role, root.Epoch(), root.ReplAddr())
	}
	fmt.Printf("aflserver: root listening on %s (dataset=%s rounds=%d edge-lease=%v)\n",
		opts.listen, opts.preset, opts.cfg.Rounds, opts.cfg.EdgeLeaseDuration)
	errCh := make(chan error, 1)
	go func() { errCh <- root.ListenAndServe(opts.listen) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case sig := <-sigCh:
		// Closing does not mark the deployment finished: edges treat the
		// vanished root as a partition and buffer until it comes back.
		fmt.Printf("aflserver: root: %v at round %d, checkpointing and shutting down\n", sig, root.Version())
		err := root.Close()
		<-errCh
		return err
	case <-root.Done():
	}
	st := root.Stats()
	fmt.Printf("aflserver: root completed %d rounds (%d edges, %d reconnects, %d expired leases, %d batches replayed, %d lost, %d handoffs delivered)\n",
		st.Rounds, st.EdgesConnected, st.EdgeReconnects, st.ExpiredEdgeLeases, st.BatchesReplayed, st.BatchesLost, st.HandoffsDelivered)
	finalParams := root.FinalParams()
	if err := root.Close(); err != nil {
		return err
	}
	if err := <-errCh; err != nil {
		return err
	}

	_, test, err := asyncfilter.GenerateData(opts.preset, opts.seed)
	if err != nil {
		return err
	}
	acc, loss, err := asyncfilter.EvaluateParams(finalParams, opts.spec, test)
	if err != nil {
		return err
	}
	fmt.Printf("aflserver: final accuracy %.2f%% (loss %.4f)\n", 100*acc, loss)
	return nil
}
