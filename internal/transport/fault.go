package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/asyncfl/asyncfilter/internal/randx"
)

// ErrInjectedFault is the error surfaced by a FaultConn when it resets the
// connection. Peers observe an ordinary connection error (closed socket).
var ErrInjectedFault = errors.New("transport: injected connection fault")

// FaultConfig parameterizes deterministic fault injection on a net.Conn.
// All probabilities are per I/O operation and drawn from a private RNG
// seeded with Seed, so a given config replays the same fault schedule.
type FaultConfig struct {
	// Seed drives the fault schedule.
	Seed int64
	// ResetProb is the probability that an operation resets the
	// connection: the underlying conn is closed and ErrInjectedFault is
	// returned, now and for every later operation.
	ResetProb float64
	// ResetAfterOps unconditionally resets the connection after this many
	// combined reads+writes (0 disables) — a deterministic mid-stream
	// crash.
	ResetAfterOps int
	// DelayProb is the probability that an operation first sleeps for
	// Delay, simulating a slow or congested link.
	DelayProb float64
	// Delay is the injected latency for delayed operations.
	Delay time.Duration
	// PartialWriteProb is the probability that a write transmits only a
	// prefix of its buffer before resetting the connection, leaving the
	// peer a truncated frame.
	PartialWriteProb float64
	// DupWriteProb is the probability that a write's payload is
	// transmitted twice back-to-back — a retransmitting middlebox
	// delivering a duplicate message.
	DupWriteProb float64
	// ReorderWriteProb is the probability that a write is held back and
	// transmitted after the next write instead, delivering two messages
	// out of order. A held payload that never sees a next write is
	// discarded on Close (it was "lost in flight").
	ReorderWriteProb float64
	// DropWriteProb is the probability that a write is silently swallowed
	// while still reported as successful — the outbound half of an
	// asymmetric partition: the peer stops hearing from us but we keep
	// hearing from them.
	DropWriteProb float64
	// StallReadsAfterOps arms a one-shot inbound stall: once this many
	// combined reads+writes have run (0 disables), the next read first
	// blocks for StallDuration — the inbound half of an asymmetric
	// partition, exercising read deadlines and lease expiry.
	StallReadsAfterOps int
	// StallDuration is how long the stalled read blocks before
	// proceeding normally.
	StallDuration time.Duration
}

// FaultConn wraps a net.Conn with injectable drops, delays, partial writes
// and mid-stream resets for testing transport robustness. Safe for the
// usual one-reader/one-writer connection usage.
type FaultConn struct {
	net.Conn
	cfg FaultConfig

	mu      sync.Mutex
	rng     *rand.Rand
	ops     int
	broken  bool
	stalled bool   // the one-shot read stall already fired
	held    []byte // payload parked by a reorder fault, awaiting the next write
}

// NewFaultConn wraps conn with fault injection.
func NewFaultConn(conn net.Conn, cfg FaultConfig) *FaultConn {
	return &FaultConn{
		Conn: conn,
		cfg:  cfg,
		rng:  randx.New(cfg.Seed),
	}
}

// fault rolls the fault schedule for one operation. It returns the number
// of bytes a write may transmit (limit < n means partial write then
// reset), or a non-nil error when the connection resets outright.
func (f *FaultConn) fault(isWrite bool, n int) (int, error) {
	f.mu.Lock()
	if f.broken {
		f.mu.Unlock()
		return 0, ErrInjectedFault
	}
	f.ops++
	var delay time.Duration
	if f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb {
		delay = f.cfg.Delay
	}
	if !isWrite && !f.stalled && f.cfg.StallReadsAfterOps > 0 &&
		f.ops >= f.cfg.StallReadsAfterOps {
		f.stalled = true
		delay += f.cfg.StallDuration
	}
	reset := f.cfg.ResetAfterOps > 0 && f.ops >= f.cfg.ResetAfterOps
	if !reset && f.cfg.ResetProb > 0 && f.rng.Float64() < f.cfg.ResetProb {
		reset = true
	}
	limit := n
	if isWrite && !reset && f.cfg.PartialWriteProb > 0 && n > 1 &&
		f.rng.Float64() < f.cfg.PartialWriteProb {
		limit = n / 2
		reset = true // the remainder of the message is lost
	}
	if reset {
		f.broken = true
	}
	f.mu.Unlock()

	if delay > 0 {
		time.Sleep(delay)
	}
	if reset && limit == n {
		_ = f.Conn.Close()
		return 0, ErrInjectedFault
	}
	return limit, nil
}

// Read implements net.Conn.
func (f *FaultConn) Read(p []byte) (int, error) {
	if _, err := f.fault(false, len(p)); err != nil {
		return 0, err
	}
	return f.Conn.Read(p)
}

// writeShuffle rolls the delivery-mangling faults for one write: drop
// (swallow silently), hold (park the payload for reordering), dup
// (transmit twice). It also releases any previously held payload, which
// the caller must transmit after the current one — that inversion is the
// reorder. Decisions happen under the lock; all I/O stays with the
// caller.
func (f *FaultConn) writeShuffle(p []byte) (drop, hold, dup bool, release []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.DropWriteProb > 0 && f.rng.Float64() < f.cfg.DropWriteProb {
		return true, false, false, nil
	}
	release = f.held
	f.held = nil
	if release == nil && f.cfg.ReorderWriteProb > 0 &&
		f.rng.Float64() < f.cfg.ReorderWriteProb {
		f.held = append([]byte(nil), p...)
		return false, true, false, nil
	}
	dup = f.cfg.DupWriteProb > 0 && f.rng.Float64() < f.cfg.DupWriteProb
	return false, false, dup, release
}

// Write implements net.Conn. A partial-write fault transmits a prefix,
// closes the underlying connection and reports ErrInjectedFault. Drop,
// reorder and dup faults mangle delivery while reporting success, the
// way a lossy or retransmitting network path would.
func (f *FaultConn) Write(p []byte) (int, error) {
	limit, err := f.fault(true, len(p))
	if err != nil {
		return 0, err
	}
	if limit < len(p) {
		n, _ := f.Conn.Write(p[:limit])
		_ = f.Conn.Close()
		return n, ErrInjectedFault
	}
	drop, hold, dup, release := f.writeShuffle(p)
	if drop || hold {
		// Swallowed or parked: the caller sees an ordinary success, the
		// peer sees nothing (yet).
		return len(p), nil
	}
	n, err := f.Conn.Write(p)
	if err != nil {
		return n, err
	}
	if release != nil {
		if _, err := f.Conn.Write(release); err != nil {
			return n, err
		}
	}
	if dup {
		if _, err := f.Conn.Write(p); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Close implements net.Conn. A payload still held for reordering is
// discarded — it was lost in flight.
func (f *FaultConn) Close() error {
	f.mu.Lock()
	f.broken = true
	f.held = nil
	f.mu.Unlock()
	return f.Conn.Close()
}

// FaultDialer returns a dial function (pluggable via ClientConfig.Dial)
// whose connections inject faults per cfg. Each successive connection gets
// an independent schedule derived from cfg.Seed, so reconnect paths are
// exercised deterministically.
func FaultDialer(cfg FaultConfig) func(addr string) (net.Conn, error) {
	var mu sync.Mutex
	attempt := int64(0)
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: fault dial: %w", err)
		}
		mu.Lock()
		attempt++
		connCfg := cfg
		connCfg.Seed = cfg.Seed + attempt*7919
		mu.Unlock()
		return NewFaultConn(conn, connCfg), nil
	}
}
