package main

import (
	"net"
	"sync"
	"sync/atomic"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
)

// roundTrace joins one server's filter and combiner calls into round
// spans. Filter and Combine of one server are serialized by its round
// slot, so the fields need no lock.
type roundTrace struct {
	tr *tracer
	// prefix names this server's spans ("" for the client-facing server,
	// "root." for the tiered root); idBase keeps round ids of different
	// servers apart.
	prefix string
	idBase int64

	round      int64
	roundStart int64
	open       bool
}

// startRound closes the previous round span (a round lasts from one
// filter call to the next, so its self time is the commit, checkpoint and
// goal-waiting time around filter and combine) and opens the next.
func (rt *roundTrace) startRound(round int, now int64) {
	if rt.open {
		rt.tr.add(span{Name: rt.prefix + "round", Start: rt.roundStart, End: now, ID: rt.round})
	}
	rt.round = rt.idBase + int64(round)
	rt.roundStart = now
	rt.open = true
}

// countingFilter wraps the AsyncFilter of one server. Untraced it only
// counts verdicts (per client and in total) with neither clocks nor
// allocation; with an active tracer it also records spans.
type countingFilter struct {
	inner *core.AsyncFilter
	rt    *roundTrace

	accepted, deferred, rejected atomic.Int64
	calls, batched               atomic.Int64
	// agedOut counts deferrals of updates already at the staleness limit.
	// Requeueing ages a deferred update by the round just committed, and
	// both the server and the root then drop it as stale: the deferral
	// was the filter's last word on it.
	agedOut atomic.Int64
	// perClient verdicts, indexed by client id. Written only inside
	// Filter (serialized by the server) and read after the server closed.
	clientAccepted, clientRejected []int64
}

// The wrapper must implement exactly the optional interfaces
// *core.AsyncFilter implements: dropping one would silently stop the
// server checkpointing filter state or the root shipping replication
// diffs. TestWrapperInterfacesMatch checks the set stays equal.
var (
	_ fl.Filter           = (*countingFilter)(nil)
	_ fl.ObservableFilter = (*countingFilter)(nil)
	_ fl.StateSnapshotter = (*countingFilter)(nil)
	_ fl.StateMerger      = (*countingFilter)(nil)
	_ fl.StateDiffer      = (*countingFilter)(nil)
)

func newCountingFilter(inner *core.AsyncFilter, clients int, rt *roundTrace) *countingFilter {
	return &countingFilter{
		inner:          inner,
		rt:             rt,
		clientAccepted: make([]int64, clients),
		clientRejected: make([]int64, clients),
	}
}

func (f *countingFilter) Name() string { return f.inner.Name() }

func (f *countingFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	var start int64
	traced := f.rt != nil && f.rt.tr.active()
	if traced {
		start = f.rt.tr.now()
		f.rt.startRound(round, start)
	}
	res, err := f.inner.Filter(updates, round)
	if traced {
		f.rt.tr.add(span{Name: f.rt.prefix + "core.filter", Start: start, End: f.rt.tr.now(), Parent: f.rt.round})
	}
	if err != nil {
		return res, err
	}
	var a, d, r, o int64
	for i, dec := range res.Decisions {
		c := updates[i].ClientID
		switch dec {
		case fl.Accept:
			a++
			if c >= 0 && c < len(f.clientAccepted) {
				f.clientAccepted[c]++
			}
		case fl.Defer:
			d++
			if updates[i].Staleness >= stalenessLimit {
				o++
			}
		case fl.Reject:
			r++
			if c >= 0 && c < len(f.clientRejected) {
				f.clientRejected[c]++
			}
		}
	}
	f.accepted.Add(a)
	f.deferred.Add(d)
	f.rejected.Add(r)
	f.agedOut.Add(o)
	f.calls.Add(1)
	f.batched.Add(int64(len(updates)))
	return res, nil
}

// verdicts is the number of final (accept or reject) decisions so far.
func (f *countingFilter) verdicts() int64 { return f.accepted.Load() + f.rejected.Load() }

// decisions is the number of decisions of any kind so far.
func (f *countingFilter) decisions() int64 { return f.verdicts() + f.deferred.Load() }

func (f *countingFilter) SetObserver(obs fl.FilterObserver) { f.inner.SetObserver(obs) }

func (f *countingFilter) SnapshotState() ([]byte, error) {
	if f.rt == nil || !f.rt.tr.active() {
		return f.inner.SnapshotState()
	}
	start := f.rt.tr.now()
	b, err := f.inner.SnapshotState()
	f.rt.tr.add(span{Name: f.rt.prefix + "core.snapshot", Start: start, End: f.rt.tr.now()})
	return b, err
}

func (f *countingFilter) RestoreState(data []byte) error { return f.inner.RestoreState(data) }

func (f *countingFilter) MergeState(data []byte) error { return f.inner.MergeState(data) }

func (f *countingFilter) DiffState(prev []byte) ([]byte, error) {
	if f.rt == nil || !f.rt.tr.active() {
		return f.inner.DiffState(prev)
	}
	start := f.rt.tr.now()
	b, err := f.inner.DiffState(prev)
	f.rt.tr.add(span{Name: f.rt.prefix + "core.diff", Start: start, End: f.rt.tr.now()})
	return b, err
}

// timedCombiner wraps the weighted-mean combiner with combine spans.
type timedCombiner struct {
	inner fl.MeanCombiner
	rt    *roundTrace
}

var _ fl.Combiner = (*timedCombiner)(nil)

func (c *timedCombiner) Name() string { return c.inner.Name() }

func (c *timedCombiner) Combine(updates []*fl.Update, cfg fl.AggregatorConfig) ([]float64, error) {
	if c.rt == nil || !c.rt.tr.active() {
		return c.inner.Combine(updates, cfg)
	}
	start := c.rt.tr.now()
	d, err := c.inner.Combine(updates, cfg)
	c.rt.tr.add(span{Name: c.rt.prefix + "fl.combine", Start: start, End: c.rt.tr.now(), Parent: c.rt.round})
	return d, err
}

// wireStats counts one side of a set of connections.
type wireStats struct {
	accepts, bytesIn, bytesOut, reads, writes, writeNs atomic.Int64
}

// tracedListener wraps the client-facing listener so every accepted
// connection is counted and timed.
type tracedListener struct {
	net.Listener
	tr *tracer
	ws *wireStats
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.ws.accepts.Add(1)
	return &serverConn{Conn: c, tr: l.tr, ws: l.ws, start: l.tr.now()}, nil
}

// serverConn is an accepted client connection as the server sees it.
// Counters run whenever the tracer is on; the session span covers accept
// to close.
type serverConn struct {
	net.Conn
	tr    *tracer
	ws    *wireStats
	start int64
	once  sync.Once
}

func (c *serverConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.tr.active() {
		c.ws.reads.Add(1)
		c.ws.bytesIn.Add(int64(n))
	}
	return n, err
}

func (c *serverConn) Write(b []byte) (int, error) {
	if !c.tr.active() {
		return c.Conn.Write(b)
	}
	start := c.tr.now()
	n, err := c.Conn.Write(b)
	c.ws.writeNs.Add(c.tr.now() - start)
	c.ws.writes.Add(1)
	c.ws.bytesOut.Add(int64(n))
	return n, err
}

func (c *serverConn) Close() error {
	c.once.Do(func() {
		if c.tr.active() {
			c.tr.add(span{Name: "transport.session", Start: c.start, End: c.tr.now()})
		}
	})
	return c.Conn.Close()
}

// uplinkConn is the edge's connection to the root, installed through the
// edge's Dial hook. The uplink is strictly request-reply, so a request's
// round trip runs from its first write to the first read after it.
type uplinkConn struct {
	net.Conn
	tr       *tracer
	bytesOut *atomic.Int64
	pending  bool
	sent     int64
}

func (c *uplinkConn) Write(b []byte) (int, error) {
	if c.tr.active() && !c.pending {
		c.pending = true
		c.sent = c.tr.now()
	}
	n, err := c.Conn.Write(b)
	c.bytesOut.Add(int64(n))
	return n, err
}

func (c *uplinkConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.pending {
		c.pending = false
		if c.tr.active() {
			c.tr.add(span{Name: "topology.uplink", Start: c.sent, End: c.tr.now()})
		}
	}
	return n, err
}

// standbyConn is the standby's replication connection, installed through
// the standby's Dial hook. Each push is read, applied and acknowledged
// before the next read, so the gap from the last read to the ack write is
// the standby's merge time.
type standbyConn struct {
	net.Conn
	tr      *tracer
	bytesIn *atomic.Int64
	lastEnd int64
	read    bool
}

func (c *standbyConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.bytesIn.Add(int64(n))
	if c.tr.active() {
		c.lastEnd = c.tr.now()
		c.read = true
	}
	return n, err
}

func (c *standbyConn) Write(b []byte) (int, error) {
	if c.read && c.tr.active() {
		c.tr.add(span{Name: "replica.merge", Start: c.lastEnd, End: c.tr.now()})
	}
	c.read = false
	return c.Conn.Write(b)
}
