package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// errUnexpected marks a server frame the generator cannot act on (a
// pong, Done, Goodbye or an unknown kind): the connection is abandoned
// and the frame counted as a failed operation.
var errUnexpected = errors.New("unexpected server frame")

// reply is one decoded server->client frame.
type reply struct {
	version int64
	nack    transport.NackCode
	task    bool
}

// maxNack bounds the NackCode values counted per code.
const maxNack = 16

// gen is the single-process load generator. It owns the pool, the
// per-update records of the paced phase, the version watch behind the
// commit metric and the failure counters.
type gen struct {
	p       *pool
	addr    string
	window  int
	session bool // crossdevice: one fresh session per update
	zipf    *randx.Zipf
	epoch   time.Time

	// Paced-phase records, indexed by record position. sched is the due
	// time, sent when the update actually left (for sessions, when the
	// session started dialing), done the reply (all ns since epoch);
	// version is the reply's task version, -1 when refused or lost.
	sched, sent, done, version []int64

	watch versionWatch
	// settled counts recorded updates that got their reply or failed;
	// maxReply is the highest version any recorded reply carried. Both
	// are atomics so the coordinator can read the records they publish.
	settled  atomic.Int32
	maxReply atomic.Int64

	sentTotal     atomic.Int64 // update frames written
	nacks         [maxNack]atomic.Int64
	refusedHellos atomic.Int64
	unexpected    atomic.Int64
	connErrors    atomic.Int64
	// lost counts updates written whose reply never came because the
	// connection failed.
	lost atomic.Int64
	// preSend counts updates abandoned before their frame was written
	// (dial or Hello failed).
	preSend atomic.Int64

	conns []*pipeConn
	// saturated, when set, reports whether the stack under test already
	// holds as much unfinished work as the generator lets it; see admit.
	saturated func() bool
}

// admit blocks a writer while the stack is saturated; it returns false
// if the phase stopped meanwhile. A server answers an update as soon as
// it is buffered, before any round filters it, so neither a connection's
// window nor a session's wait for its reply ever waits for the round
// loop. When the round loop falls behind (on a shared machine, when it
// loses the CPU for a few milliseconds), a closed loop would keep filling
// the bounded buffer until the server sheds updates, and on tiered the
// edge would commit batches faster than the uplink and the re-screening
// root apply them until it sheds batches. Holding back instead keeps the
// benchmark's load within what the program can absorb: a shed update is
// then a failure of the program, not of the load. A paced update held
// here is sent late, and its latencies still count from its scheduled
// time.
func (g *gen) admit(ph *phase) bool {
	for g.saturated != nil && g.saturated() {
		if ph.stop.Load() {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

func (g *gen) now() int64 { return int64(time.Since(g.epoch)) }

// versionWatch remembers when any connection first read a task of at
// least each version: firstAt[v] is that time.
type versionWatch struct {
	max     atomic.Int64
	mu      sync.Mutex
	firstAt []int64
}

func (w *versionWatch) see(v, now int64) {
	if v <= w.max.Load() {
		return
	}
	w.mu.Lock()
	for u := w.max.Load() + 1; u <= v; u++ {
		for int64(len(w.firstAt)) <= u {
			w.firstAt = append(w.firstAt, 0)
		}
		w.firstAt[u] = now
	}
	w.max.Store(v)
	w.mu.Unlock()
}

// firstAbove returns when a version above v was first read, or -1.
func (w *versionWatch) firstAbove(v int64) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v+1 < int64(len(w.firstAt)) && v+1 <= w.max.Load() {
		return w.firstAt[v+1]
	}
	return -1
}

// frameReader decodes server->client frames without allocating for the
// raw task and nack replies; only gob frames (shard pushes, Done,
// Goodbye, refusals) allocate.
type frameReader struct {
	br      *bufio.Reader
	hdr     [frameHdrLen + 24]byte
	payload []byte
}

func (fr *frameReader) read() (reply, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:frameHdrLen]); err != nil {
		return reply{}, err
	}
	kind := fr.hdr[0]
	n := int(binary.LittleEndian.Uint32(fr.hdr[1:frameHdrLen]))
	switch kind {
	case frameTask:
		if n < 24 || (n-24)%8 != 0 {
			return reply{}, fmt.Errorf("task frame of %d bytes: %w", n, errUnexpected)
		}
		f := fr.hdr[frameHdrLen:]
		if _, err := io.ReadFull(fr.br, f); err != nil {
			return reply{}, err
		}
		if _, err := fr.br.Discard(n - 24); err != nil {
			return reply{}, err
		}
		return reply{
			version: int64(binary.LittleEndian.Uint64(f[0:])),
			nack:    transport.NackCode(int64(binary.LittleEndian.Uint64(f[8:]))),
			task:    true,
		}, nil
	case frameGob:
		if cap(fr.payload) < n {
			fr.payload = make([]byte, n)
		}
		b := fr.payload[:n]
		if _, err := io.ReadFull(fr.br, b); err != nil {
			return reply{}, err
		}
		var msg transport.ServerMsg
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&msg); err != nil {
			return reply{}, fmt.Errorf("gob frame: %v: %w", err, errUnexpected)
		}
		if msg.Task == nil {
			if msg.Nack != 0 {
				return reply{nack: msg.Nack}, nil
			}
			return reply{}, fmt.Errorf("gob frame without task (done=%v goodbye=%v): %w", msg.Done, msg.Goodbye, errUnexpected)
		}
		return reply{version: int64(msg.Task.Version), nack: msg.Nack, task: true}, nil
	default:
		return reply{}, fmt.Errorf("frame kind 0x%02x: %w", kind, errUnexpected)
	}
}

// pipeConn is one long-lived connection that keeps a window of updates
// in flight: a writer goroutine sends, a reader goroutine consumes the
// replies in order.
type pipeConn struct {
	g      *gen
	conn   net.Conn
	fr     frameReader
	client int
	rng    *rand.Rand
	hdr    [updateHdrLen]byte
	bufArr [2][]byte
	bufs   net.Buffers
	// inflight is the window: the schedule index of every update written
	// and not yet answered (-1 for unrecorded updates), in send order.
	inflight chan int32
	latest   atomic.Int64
	closing  atomic.Bool
	broken   atomic.Bool
	readDone chan struct{}
}

// dialClient opens a connection, says Hello as client and reads the
// first task.
func (g *gen) dialClient(client int, br *bufio.Reader) (net.Conn, reply, error) {
	conn, err := net.DialTimeout("tcp", g.addr, 10*time.Second)
	if err != nil {
		return nil, reply{}, err
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(g.p.hello[client]); err != nil {
		conn.Close()
		return nil, reply{}, err
	}
	br.Reset(conn)
	fr := frameReader{br: br}
	r, err := fr.read()
	if err != nil {
		conn.Close()
		return nil, reply{}, err
	}
	if !r.task || r.nack != 0 {
		conn.Close()
		return nil, r, fmt.Errorf("hello refused (%s)", r.nack)
	}
	_ = conn.SetDeadline(time.Time{})
	g.watch.see(r.version, g.now())
	return conn, r, nil
}

// openPipe opens one pipelined connection holding its first task.
func (g *gen) openPipe(client int, seed int64) (*pipeConn, error) {
	pc := &pipeConn{
		g:        g,
		client:   client,
		rng:      randx.New(seed),
		inflight: make(chan int32, g.window),
		readDone: make(chan struct{}),
	}
	pc.fr.br = bufio.NewReaderSize(nil, 64<<10)
	conn, r, err := g.dialClient(client, pc.fr.br)
	if err != nil {
		return nil, err
	}
	pc.conn = conn
	pc.latest.Store(r.version)
	dim := g.p.spec.dim
	pc.hdr[0] = frameUpdate
	binary.LittleEndian.PutUint32(pc.hdr[1:frameHdrLen], uint32(8+8*dim))
	return pc, nil
}

// staleness draws an update's staleness from the Zipf law over
// [0, StalenessLimit].
func (g *gen) staleness(r *rand.Rand) int { return g.zipf.Sample(r) - 1 }

// send writes one update frame: a delta from a Zipf-drawn staleness
// bucket, sent with BaseVersion = latest seen version - staleness.
func (pc *pipeConn) send() error {
	s := pc.g.staleness(pc.rng)
	base := pc.latest.Load() - int64(s)
	if base < 0 {
		base = 0
	}
	binary.LittleEndian.PutUint64(pc.hdr[frameHdrLen:], uint64(base))
	pc.bufArr[0] = pc.hdr[:]
	pc.bufArr[1] = pc.g.p.body(pc.client, s)
	pc.bufs = pc.bufArr[:]
	if _, err := pc.bufs.WriteTo(pc.conn); err != nil {
		return err
	}
	pc.g.sentTotal.Add(1)
	return nil
}

// readLoop consumes replies until the connection closes.
func (pc *pipeConn) readLoop() {
	defer close(pc.readDone)
	g := pc.g
	for {
		r, err := pc.fr.read()
		if err != nil {
			if !pc.closing.Load() {
				g.connFailed(err)
			}
			pc.broken.Store(true)
			for {
				select {
				case k := <-pc.inflight:
					g.strand(k)
				default:
					return
				}
			}
		}
		now := g.now()
		if r.task {
			pc.latest.Store(r.version)
			g.watch.see(r.version, now)
		}
		var k int32
		select {
		case k = <-pc.inflight:
		default:
			g.unexpected.Add(1)
			continue
		}
		g.noteReply(k, r, now)
	}
}

// noteReply books one update reply against schedule index k.
func (g *gen) noteReply(k int32, r reply, now int64) {
	v := r.version
	if r.nack != 0 {
		if int(r.nack) < maxNack {
			g.nacks[r.nack].Add(1)
		}
		v = -1
	}
	g.settle(k, now, v)
}

// settle books recorded update k as finished at now with reply version v
// (-1 = refused or lost). Unrecorded updates (k < 0) are ignored.
func (g *gen) settle(k int32, now, v int64) {
	if k < 0 {
		return
	}
	g.done[k] = now
	g.version[k] = v
	for {
		m := g.maxReply.Load()
		if v <= m || g.maxReply.CompareAndSwap(m, v) {
			break
		}
	}
	g.settled.Add(1)
}

// connFailed books a broken connection.
func (g *gen) connFailed(err error) {
	if errors.Is(err, errUnexpected) {
		g.unexpected.Add(1)
	} else {
		g.connErrors.Add(1)
	}
}

// strand books an update written on a connection that failed before its
// reply arrived.
func (g *gen) strand(k int32) {
	g.lost.Add(1)
	g.settle(k, g.now(), -1)
}

// nackTotal sums refusals of every code.
func (g *gen) nackTotal() int64 {
	var n int64
	for i := range g.nacks {
		n += g.nacks[i].Load()
	}
	return n
}

// phase describes one measured phase: paced (open loop at a fixed rate)
// or flood (closed loop, every window full).
type phase struct {
	paced    bool
	start    int64
	interval int64 // paced: ns between scheduled sends
	skip     int32 // paced: warm-up schedule indexes, sent unrecorded
	measured int32 // paced: schedule indexes recorded after the warm-up
	next     atomic.Int32
	stop     atomic.Bool
}

// claim returns the next schedule index and its due time, or false when
// the phase has been stopped.
func (ph *phase) claim() (int32, int64, bool) {
	if ph.stop.Load() {
		return 0, 0, false
	}
	k := ph.next.Add(1) - 1
	return k, ph.start + int64(k)*ph.interval, true
}

// record maps schedule index k to its record index, or -1 for warm-up
// and tail updates.
func (ph *phase) record(k int32) int32 {
	if k < ph.skip || k >= ph.skip+ph.measured {
		return -1
	}
	return k - ph.skip
}

// waitUntil sleeps until the due time (ns since epoch).
func (g *gen) waitUntil(due int64) {
	if d := due - g.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// runPipeWriter drives one pipelined connection through a phase.
func (g *gen) runPipeWriter(pc *pipeConn, ph *phase) {
	for {
		if !g.admit(ph) {
			return
		}
		k, due, ok := ph.claim()
		if !ok {
			return
		}
		rec := int32(-1)
		if ph.paced {
			g.waitUntil(due)
			rec = ph.record(k)
		}
		if pc.broken.Load() {
			g.preSend.Add(1)
			g.settle(rec, g.now(), -1)
			return
		}
		pc.inflight <- rec
		if rec >= 0 {
			g.sent[rec] = g.now()
		}
		if err := pc.send(); err != nil {
			// The frame never left; the reader books the window it
			// strands when it sees the broken connection.
			g.connFailed(err)
			pc.broken.Store(true)
			pc.conn.Close()
			return
		}
	}
}

// runSessions drives crossdevice worker w through a phase: every update
// is a fresh session (dial, Hello, task, update, reply, close). Worker w
// only uses client ids congruent to w, so concurrent sessions never share
// a client id.
func (g *gen) runSessions(w, workers int, r *rand.Rand, br *bufio.Reader, ph *phase) {
	var hdr [updateHdrLen]byte
	hdr[0] = frameUpdate
	binary.LittleEndian.PutUint32(hdr[1:frameHdrLen], uint32(8+8*g.p.spec.dim))
	var arr [2][]byte
	var bufs net.Buffers
	fr := frameReader{br: br}
	span := (g.p.spec.clients - w + workers - 1) / workers
	for {
		if !g.admit(ph) {
			return
		}
		k, due, ok := ph.claim()
		if !ok {
			return
		}
		rec := int32(-1)
		if ph.paced {
			g.waitUntil(due)
			rec = ph.record(k)
		}
		client := w + workers*r.Intn(span)
		s := g.staleness(r)
		if rec >= 0 {
			g.sent[rec] = g.now()
		}
		conn, first, err := g.dialClient(client, br)
		if err != nil {
			if first.nack != 0 {
				g.refusedHellos.Add(1)
			} else {
				g.connFailed(err)
			}
			g.preSend.Add(1)
			g.settle(rec, g.now(), -1)
			continue
		}
		base := first.version - int64(s)
		if base < 0 {
			base = 0
		}
		binary.LittleEndian.PutUint64(hdr[frameHdrLen:], uint64(base))
		arr[0] = hdr[:]
		arr[1] = g.p.body(client, s)
		bufs = arr[:]
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := bufs.WriteTo(conn); err != nil {
			conn.Close()
			g.connFailed(err)
			g.preSend.Add(1)
			g.settle(rec, g.now(), -1)
			continue
		}
		g.sentTotal.Add(1)
		rp, err := fr.read()
		now := g.now()
		closeSession(conn)
		if err != nil {
			g.connFailed(err)
			g.strand(rec)
			continue
		}
		if rp.task {
			g.watch.see(rp.version, now)
		}
		g.noteReply(rec, rp, now)
	}
}

// closeSession ends a finished session with a reset instead of a FIN
// handshake. Thousands of sessions a second would otherwise park tens of
// thousands of sockets in TIME_WAIT, and each run would inherit the last
// run's, slowing every dial by an amount that depends on history rather
// than on the code under test.
func closeSession(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	conn.Close()
}

// drained reports whether every pipelined window is empty.
func (g *gen) drained() bool {
	for _, pc := range g.conns {
		if len(pc.inflight) > 0 && !pc.broken.Load() {
			return false
		}
	}
	return true
}

// runPhase runs one phase to completion: it launches the writers, stops
// them at the deadline (paced: once every recorded update has been
// answered and its commit observed), and waits until every window has
// drained.
func (g *gen) runPhase(ph *phase, dur time.Duration, seed int64) error {
	var wg sync.WaitGroup
	workers := len(g.conns)
	if g.session {
		workers = nprocs()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				br := bufio.NewReaderSize(nil, 64<<10)
				g.runSessions(w, workers, randx.New(seed+int64(w)*7919), br, ph)
			}(w)
		}
	} else {
		for _, pc := range g.conns {
			wg.Add(1)
			go func(pc *pipeConn) {
				defer wg.Done()
				g.runPipeWriter(pc, ph)
			}(pc)
		}
	}
	time.Sleep(time.Until(g.epoch.Add(time.Duration(ph.start) + dur)))
	err := g.finishPhase(ph)
	ph.stop.Store(true)
	wg.Wait()
	for deadline := time.Now().Add(20 * time.Second); !g.drained(); {
		if time.Now().After(deadline) {
			return errors.New("replies still outstanding 20s after the phase ended")
		}
		time.Sleep(time.Millisecond)
	}
	return err
}

// finishPhase keeps a paced phase's schedule running (unrecorded) until
// every recorded update has its reply and a later version has been read,
// so the commit metric never has to censor the phase's last updates.
func (g *gen) finishPhase(ph *phase) error {
	if !ph.paced {
		return nil
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		if g.pacedSettled(ph) {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("paced updates not committed 20s after the phase ended")
		}
		time.Sleep(time.Millisecond)
	}
}

// pacedSettled reports whether every recorded update was answered (or
// failed) and a version above every reply has been read.
func (g *gen) pacedSettled(ph *phase) bool {
	return ph.next.Load() >= ph.skip+ph.measured && g.settled.Load() == ph.measured && g.watch.max.Load() > g.maxReply.Load()
}

// pacedLatencies returns the turnaround and commit latencies (ns) of the
// recorded updates and how late each was sent. Refused or lost updates
// count as missing every latency limit (+Inf).
func (g *gen) pacedLatencies(ph *phase) (turn, commit, late []int64) {
	turn = make([]int64, 0, ph.measured)
	commit = make([]int64, 0, ph.measured)
	late = make([]int64, 0, ph.measured)
	for k := int32(0); k < ph.measured; k++ {
		due := g.sched[k]
		if g.sent[k] > 0 {
			late = append(late, g.sent[k]-due)
		}
		if g.version[k] < 0 {
			turn = append(turn, math.MaxInt64)
			commit = append(commit, math.MaxInt64)
			continue
		}
		turn = append(turn, g.done[k]-due)
		c := g.watch.firstAbove(g.version[k])
		if c < 0 {
			commit = append(commit, math.MaxInt64)
			continue
		}
		commit = append(commit, c-due)
	}
	return turn, commit, late
}

// initPaced sizes the per-update records for a paced phase that sends
// unrecorded for warm, then records for dur.
func (g *gen) initPaced(ph *phase, rate float64, warm, dur time.Duration) {
	ph.paced = true
	ph.interval = int64(float64(time.Second) / rate)
	ph.skip = int32(rate * warm.Seconds())
	ph.measured = int32(rate * dur.Seconds())
	n := int(ph.measured)
	g.settled.Store(0)
	g.maxReply.Store(-1)
	g.sched = make([]int64, n)
	g.sent = make([]int64, n)
	g.done = make([]int64, n)
	g.version = make([]int64, n)
	for k := range g.sched {
		g.sched[k] = ph.start + int64(k+int(ph.skip))*ph.interval
	}
}

// closeConns tears down the pipelined connections and waits for their
// readers.
func (g *gen) closeConns() {
	for _, pc := range g.conns {
		pc.closing.Store(true)
		pc.conn.Close()
	}
	for _, pc := range g.conns {
		<-pc.readDone
	}
}
