package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Default reconnect pacing, used when retries are enabled but the delays
// are left zero.
const (
	defaultRetryBaseDelay = 50 * time.Millisecond
	defaultRetryMaxDelay  = 2 * time.Second
)

// ClientConfig parameterizes a transport client.
type ClientConfig struct {
	// ID identifies the client to the server.
	ID int
	// Data is the client's local dataset.
	Data *dataset.Dataset
	// Model builds the local model (must match the server's parameter
	// dimension).
	Model model.Config
	// Trainer configures local optimization.
	Trainer fl.TrainerConfig
	// Attack optionally turns the client malicious: its honest delta is
	// crafted through the attack before transmission. Leave zero-valued
	// for an honest client.
	Attack attack.Config
	// ThinkTime pauses between tasks, simulating device speed (0 = none).
	ThinkTime time.Duration
	// Seed drives local randomness.
	Seed int64
	// MaxRetries is the budget of consecutive failed connection attempts
	// before Run gives up (0 = no reconnect, fail on the first error).
	// The budget refills whenever a connection makes progress (completes
	// at least one training task).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff between reconnect
	// attempts (default 50ms when MaxRetries > 0).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 2s).
	RetryMaxDelay time.Duration
	// DialTimeout bounds each connection attempt (0 = no timeout).
	DialTimeout time.Duration
	// HeartbeatInterval sends a heartbeat this often while the connection
	// is up (0 disables), keeping the server-side lease alive through
	// long local training and NACK backoff pauses. Set it well below the
	// server's LeaseDuration.
	HeartbeatInterval time.Duration
	// WriteTimeout arms a write deadline before each outbound encode
	// (0 = no deadline), so a peer that stops draining its socket fails
	// the client's send instead of parking it forever. Reads are
	// deliberately unbounded: the protocol blocks on the server's
	// schedule between tasks, and the lease/heartbeat machinery owns
	// liveness in that direction.
	WriteTimeout time.Duration
	// Dial overrides how connections are established (nil = plain TCP).
	// Tests plug in FaultDialer here to run a client through a flaky
	// network.
	Dial func(addr string) (net.Conn, error)
}

// ErrServerGoodbye is returned by Run and RunConn when the server said
// Goodbye: it is draining and wants the client to reconnect elsewhere.
// The caller decides where "elsewhere" is; Run does not retry the same
// address.
var ErrServerGoodbye = errors.New("transport: server is draining (goodbye)")

// Client is a federated learning client speaking the transport protocol.
type Client struct {
	cfg ClientConfig
	atk attack.Attack
	rng *rand.Rand
	// shards / shardVersion hold the latest shard-address push received
	// from a hierarchical edge (nil for single-server deployments). Only
	// touched from the Run/RunConn goroutine.
	shards       []string
	shardVersion int
	// rotations counts how many times Run has moved to an alternative
	// shard address (Goodbyes and repeated failures advance it).
	rotations int
	// TasksRun counts the local training rounds executed.
	TasksRun int
	// Reconnects counts successful re-dials after a dropped connection.
	Reconnects int
	// Rehomes counts re-homings to a different shard address after a
	// Goodbye or repeated connection failures.
	Rehomes int
	// Nacks counts typed NACK replies received from the server; each one
	// paused the client for the server's RetryAfter hint.
	Nacks int
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Data == nil || cfg.Data.Len() == 0 {
		return nil, fmt.Errorf("transport: NewClient: empty dataset")
	}
	if err := cfg.Trainer.Validate(); err != nil {
		return nil, fmt.Errorf("transport: NewClient: %w", err)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("transport: NewClient: MaxRetries = %d, need >= 0", cfg.MaxRetries)
	}
	if cfg.WriteTimeout < 0 {
		return nil, fmt.Errorf("transport: NewClient: WriteTimeout = %v, need >= 0", cfg.WriteTimeout)
	}
	atk, err := attack.New(cfg.Attack)
	if err != nil {
		return nil, fmt.Errorf("transport: NewClient: %w", err)
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = defaultRetryBaseDelay
	}
	if cfg.RetryMaxDelay <= 0 {
		cfg.RetryMaxDelay = defaultRetryMaxDelay
	}
	return &Client{
		cfg: cfg,
		atk: atk,
		rng: randx.New(cfg.Seed + int64(cfg.ID)),
	}, nil
}

// Run connects to the server and participates until the server signals
// completion. When the connection drops mid-deployment it reconnects with
// exponential backoff plus jitter, re-introduces itself and resumes from
// the freshly issued global model. Run fails once MaxRetries consecutive
// attempts make no progress.
//
// In a hierarchical deployment the server pushes the shard address list
// with its tasks; from then on the client re-homes instead of giving up: a
// Goodbye (its edge is draining or dead) or a failed connection attempt
// rotates to the next shard address, starting from the client's assigned
// home (clientID modulo the list length — the same assignment the root's
// shard map computes). Without a shard push the behavior is unchanged: a
// Goodbye surfaces as ErrServerGoodbye and failures retry addr.
func (c *Client) Run(addr string) error {
	failures := 0
	connected := false
	for {
		conn, err := c.dial(c.pickAddr(addr))
		if err == nil {
			if connected {
				c.Reconnects++
			}
			connected = true
			tasksBefore := c.TasksRun
			err = c.RunConn(conn)
			conn.Close()
			if err == nil {
				return nil // server signalled Done
			}
			if errors.Is(err, ErrServerGoodbye) {
				if len(c.shards) < 2 {
					// No alternatives: retrying the same address would just
					// collect more Goodbyes. Surface the redirect.
					return err
				}
				c.rotations++
				c.Rehomes++
			}
			if c.TasksRun > tasksBefore {
				failures = 0 // the connection made progress: refill budget
			}
		} else if len(c.shards) >= 2 {
			// The address may be a dead edge; try the next shard. The
			// failure budget still bounds the total number of attempts.
			c.rotations++
			c.Rehomes++
		}
		failures++
		if failures > c.cfg.MaxRetries {
			return fmt.Errorf("transport: client %d: giving up after %d consecutive failures: %w",
				c.cfg.ID, failures, err)
		}
		time.Sleep(c.backoff(failures))
	}
}

// pickAddr returns the address to dial: the seed address until a shard
// list arrives, then the client's home shard advanced by the rotation
// count.
func (c *Client) pickAddr(seed string) string {
	if len(c.shards) == 0 {
		return seed
	}
	id := c.cfg.ID
	if id < 0 {
		id = -id
	}
	return c.shards[(id+c.rotations)%len(c.shards)]
}

// dial opens one connection using the configured dialer.
func (c *Client) dial(addr string) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(addr)
	}
	conn, err := net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial: %w", err)
	}
	return conn, nil
}

// backoff returns the sleep before retry attempt n (1-based): the shared
// exponential schedule from RetryBaseDelay capped at RetryMaxDelay, with
// ±50% jitter so a fleet of clients dropped by the same fault does not
// reconnect in lockstep.
func (c *Client) backoff(n int) time.Duration {
	jitter := 0.5 + c.rng.Float64() // in [0.5, 1.5)
	return BackoffDelay(jitter, c.cfg.RetryBaseDelay, c.cfg.RetryMaxDelay, n)
}

// ClientConn is the client side of one connection: the preamble, the
// frame encoder and the frame decoder. It arms no deadlines; its caller
// owns the net.Conn's deadline policy. Writes and reads may run on two
// goroutines (one writer, one reader), never more. Client speaks
// through it, and so can load generators that drive the protocol by
// hand.
type ClientConn struct {
	bin    *binConn
	params []float64
}

// NewClientConn dresses the initiating side of a client connection. The
// first Send carries the connection preamble.
func NewClientConn(conn net.Conn) *ClientConn {
	return &ClientConn{bin: newInitiator(conn, 0)}
}

// Send transmits one client message in one write.
func (c *ClientConn) Send(msg *ClientMsg) error { return c.bin.writeClientMsg(msg) }

// Recv decodes the next server message into msg. Task parameters decode
// into a scratch slab the ClientConn owns: the decoded Task aliases it
// only until the next Recv, so callers copy what they keep (the
// protocol loop copies parameters into the model before reading again).
//
//afl:owned
func (c *ClientConn) Recv(msg *ServerMsg) error {
	params, err := c.bin.readServerMsg(msg, c.params)
	c.params = params
	return err
}

// connWriter owns all writes on a client connection. Heartbeats must go
// out while the main loop is busy training, and the framing state is not
// safe for concurrent writers, so every outbound message funnels through
// one writer goroutine via a buffered queue — no lock is ever held
// around the blocking encode. A failed encode closes the connection so
// the reader side unblocks too.
type connWriter struct {
	queue chan *ClientMsg
	dead  chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
}

func startConnWriter(conn net.Conn, wire *ClientConn, writeTimeout time.Duration) *connWriter {
	w := &connWriter{
		queue: make(chan *ClientMsg, 8),
		dead:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(w.dead)
		for {
			select {
			case <-w.stop:
				return
			case msg := <-w.queue:
				if writeTimeout > 0 {
					_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				}
				if err := wire.Send(msg); err != nil {
					// Unblock the decode loop: a one-sided write failure
					// must not leave the client hanging on a read.
					_ = conn.Close()
					return
				}
			}
		}
	}()
	return w
}

// send enqueues a message, failing once the writer has died.
func (w *connWriter) send(msg *ClientMsg) error {
	select {
	case w.queue <- msg:
		return nil
	case <-w.dead:
		return errors.New("connection writer closed")
	}
}

// trySend enqueues without blocking (heartbeats are droppable: a full
// queue means real traffic is flowing, which renews the lease anyway).
func (w *connWriter) trySend(msg *ClientMsg) {
	select {
	case w.queue <- msg:
	default:
	}
}

// close stops the writer and waits for it to exit.
func (w *connWriter) close() {
	close(w.stop)
	w.wg.Wait()
}

// RunConn participates over an established connection (useful for tests
// and custom transports). It returns nil only when the server signals
// completion; ErrServerGoodbye when the server is draining; any other
// transport error is returned for the caller (Run) to decide whether to
// reconnect.
func (c *Client) RunConn(conn net.Conn) error {
	wire := NewClientConn(conn)

	m, err := model.New(c.cfg.Model)
	if err != nil {
		return fmt.Errorf("transport: model: %w", err)
	}

	// Without heartbeats the wire is driven synchronously from the
	// protocol loop, preserving the strict write-then-read operation order
	// that deterministic fault-injection schedules count on. With
	// heartbeats enabled, a single-writer goroutine owns the wire's write
	// side so keepalives can go out while this loop is blocked in local
	// training — concurrency by message passing, never a lock around the
	// blocking encode.
	var send func(*ClientMsg) error
	if c.cfg.HeartbeatInterval > 0 {
		w := startConnWriter(conn, wire, c.cfg.WriteTimeout)
		defer w.close()
		send = w.send

		hbStop := make(chan struct{})
		defer close(hbStop)
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			ticker := time.NewTicker(c.cfg.HeartbeatInterval)
			defer ticker.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-w.dead:
					return
				case <-ticker.C:
					w.trySend(&ClientMsg{Heartbeat: true})
				}
			}
		}()
	} else {
		send = func(msg *ClientMsg) error {
			if c.cfg.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
			}
			return wire.Send(msg)
		}
	}

	hello := &ClientMsg{Hello: &Hello{
		ClientID:   c.cfg.ID,
		NumSamples: c.cfg.Data.Len(),
		ModelDim:   m.NumParams(),
		Codec:      CodecBinary,
	}}
	if err := send(hello); err != nil {
		return fmt.Errorf("transport: hello: %w", err)
	}

	for {
		var msg ServerMsg
		//lint:ignore netdeadline the protocol read blocks on the server's task schedule by design; lease heartbeats (not deadlines) bound liveness here
		if err := wire.Recv(&msg); err != nil {
			return fmt.Errorf("transport: receive: %w", err)
		}
		if len(msg.Shards) > 0 && msg.ShardVersion > c.shardVersion {
			// A fresh shard push replaces the held list and re-anchors the
			// client at its home shard for the next re-homing decision.
			c.shards = append([]string(nil), msg.Shards...)
			c.shardVersion = msg.ShardVersion
			c.rotations = 0
		}
		if msg.Done {
			return nil
		}
		if msg.Goodbye {
			return ErrServerGoodbye
		}
		if msg.Nack != 0 {
			// Typed refusal: back off for the server's pacing hint
			// instead of retrying hot. A Nack without a task (a refused
			// Hello) is terminal for this connection.
			c.Nacks++
			if msg.Task == nil {
				return fmt.Errorf("transport: server refused hello: %s", msg.Nack)
			}
			if msg.RetryAfter > 0 {
				time.Sleep(msg.RetryAfter)
			}
		}
		if msg.Task == nil {
			continue // Pong or empty envelope
		}
		if len(msg.Task.Params) != m.NumParams() {
			return fmt.Errorf("transport: task has %d params, model needs %d", len(msg.Task.Params), m.NumParams())
		}
		if c.cfg.ThinkTime > 0 {
			time.Sleep(c.cfg.ThinkTime)
		}
		m.SetParams(msg.Task.Params)
		delta, err := fl.LocalTrain(m, c.cfg.Data, c.cfg.Trainer, c.rng)
		if err != nil {
			return fmt.Errorf("transport: local training: %w", err)
		}
		crafted, err := c.atk.Craft([][]float64{delta}, c.rng)
		if err != nil {
			return fmt.Errorf("transport: attack: %w", err)
		}
		if len(crafted) != 1 {
			// A malfunctioning attack must not silently fall back to the
			// honest delta: that would misreport the deployment under test.
			return fmt.Errorf("transport: attack crafted %d deltas for 1 honest input", len(crafted))
		}
		delta = crafted[0]
		c.TasksRun++
		out := &ClientMsg{Update: &UpdateMsg{
			BaseVersion: msg.Task.Version,
			Delta:       vecmath.Clone(delta),
		}}
		if err := send(out); err != nil {
			return fmt.Errorf("transport: send update: %w", err)
		}
	}
}
