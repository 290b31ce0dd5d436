package main

import (
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asyncfl/asyncfilter/internal/topology"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// Runtime metrics read at the edges of a flood window.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcCPU, totalCPU      float64
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// edgeCounters snapshots every counter a flood window differences.
type edgeCounters struct {
	at       time.Time
	spanAt   int64
	cpu      time.Duration
	rt       runtimeSample
	verdicts int64 // final verdicts: client-facing filter (flat) or root filter (tiered)
	sent     int64
	decided  int64 // client-facing filter decisions of any kind
	deferred int64
	calls    int64
	batched  int64
	srv      transport.ServerStats
	root     topology.RootStats
	edge     topology.EdgeStats
	standby  int // standby records applied
	accepts  int64
	bytesIn  int64
	bytesOut int64
	reads    int64
	writes   int64
	writeNs  int64
	uplink   int64
	repl     int64
	ckptSize int64
}

// floodPart is one measured closed-loop interval between two counter
// snapshots.
type floodPart struct {
	a, b   edgeCounters
	traced bool
}

func (fp *floodPart) verdicts() int64 { return fp.b.verdicts - fp.a.verdicts }

func (fp *floodPart) updatesPerS() float64 {
	return float64(fp.verdicts()) / fp.b.at.Sub(fp.a.at).Seconds()
}

// floodMedian applies f to every flood part traced or not, as asked, and
// returns the median.
func (rs *runState) floodMedian(traced bool, f func(fp *floodPart) float64) float64 {
	var xs []float64
	for i := range rs.floods {
		if rs.floods[i].traced == traced {
			xs = append(xs, f(&rs.floods[i]))
		}
	}
	return median(xs)
}

// tracedDelta sums b-a of one counter over the traced flood parts.
func (rs *runState) tracedDelta(f func(c *edgeCounters) int64) int64 {
	var d int64
	for i := range rs.floods {
		if fp := &rs.floods[i]; fp.traced {
			d += f(&fp.b) - f(&fp.a)
		}
	}
	return d
}

func snapshot(rs *runState) edgeCounters {
	st, tr := rs.st, rs.tr
	c := edgeCounters{
		at:       time.Now(),
		sent:     rs.g.sentTotal.Load(),
		cpu:      cpuTime(),
		rt:       readRuntime(),
		decided:  st.front.decisions(),
		deferred: st.front.deferred.Load(),
		calls:    st.front.calls.Load(),
		batched:  st.front.batched.Load(),
		srv:      st.server().Stats(),
		accepts:  st.wire.accepts.Load(),
		bytesIn:  st.wire.bytesIn.Load(),
		bytesOut: st.wire.bytesOut.Load(),
		reads:    st.wire.reads.Load(),
		writes:   st.wire.writes.Load(),
		writeNs:  st.wire.writeNs.Load(),
		uplink:   st.uplinkBytes.Load(),
		repl:     st.replBytes.Load(),
	}
	if tr != nil {
		c.spanAt = tr.now()
	}
	c.verdicts = st.front.verdicts()
	if st.edge != nil {
		c.verdicts = st.root.verdicts()
		c.root = st.pRoot.Stats()
		c.edge = st.edge.Stats()
		c.standby = st.sNode.Stats().RecordsApplied
		if fi, err := os.Stat(filepath.Join(st.dir, "root.ckpt")); err == nil {
			c.ckptSize = fi.Size()
		}
	}
	return c
}

// sampler polls the memory the Go runtime holds from the OS during the
// whole measurement, and, while the tracer is on, the heap size and the
// Version getters (replication lag).
type sampler struct {
	st   *stack
	tr   *tracer
	done chan struct{}
	wg   sync.WaitGroup
	// partPeak is the most memory held (mapped minus released to the OS)
	// since the last takePeak.
	partPeak atomic.Uint64
	lagMax   int
	heapPeak uint64
}

func startSampler(st *stack, tr *tracer) *sampler {
	s := &sampler{st: st, tr: tr, done: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer s.wg.Done()
	mem := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
		}
		metrics.Read(mem)
		if held := mem[0].Value.Uint64() - mem[1].Value.Uint64(); held > s.partPeak.Load() {
			s.partPeak.Store(held)
		}
		if !s.tr.active() {
			continue
		}
		if v := mem[2].Value.Uint64(); v > s.heapPeak {
			s.heapPeak = v
		}
		if s.st.edge != nil {
			if lag := s.st.pRoot.Version() - s.st.sRoot.Version(); lag > s.lagMax {
				s.lagMax = lag
			}
		}
	}
}

// takePeak returns the most memory held since the last call and starts
// a new interval.
func (s *sampler) takePeak() uint64 { return s.partPeak.Swap(0) }

func (s *sampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// outcome holds the end-of-run accounting shared by checks and metrics.
type outcome struct {
	srv                  transport.ServerStats
	root                 topology.RootStats
	edge                 topology.EdgeStats
	attempted, failed    int64
	attackerReject       float64
	honestAccept         float64
	finite               bool
	primaryV, standbyV   int
	tieredLost, srvDrops int64
	attackerN, honestN   int64
	// aged and rootAged count the updates the front and root filters
	// deferred until they aged past the staleness limit.
	aged, rootAged int64
}

// account collects the final counters of a stopped stack and computes
// attempts and failures. Failures are NACKs, updates lost to broken
// connections or never sent, unexpected frames, buffer-shed, stale and
// malformed drops, and for tiered the updates in edge batches that never
// reached the root plus the root's own drops. Filter rejections are not
// failures, and neither are updates the filter deferred until they aged
// past the staleness limit: the servers count those as stale drops too.
func (rs *runState) account() outcome {
	st, g := rs.st, rs.g
	o := outcome{srv: st.server().Stats(), finite: allFinite(st.server().FinalParams())}
	shedQuiet := int64(o.srv.DroppedShed) - g.nacks[transport.NackOverloaded].Load()
	malformed := int64(o.srv.DroppedMalformed) - g.refusedHellos.Load()
	o.aged = st.front.agedOut.Load()
	o.srvDrops = max64(shedQuiet, 0) + int64(o.srv.DroppedStale) - o.aged + max64(malformed, 0)
	if st.edge != nil {
		o.root = st.pRoot.Stats()
		o.edge = st.edge.Stats()
		o.primaryV, o.standbyV = st.pRoot.Version(), st.sRoot.Version()
		o.finite = o.finite && allFinite(st.pRoot.FinalParams()) && allFinite(st.sRoot.FinalParams())
		o.rootAged = st.root.agedOut.Load()
		o.tieredLost = int64(o.srv.Accepted-o.root.UpdatesReceived) +
			int64(o.root.DroppedStale+o.root.DroppedMalformed) - o.rootAged
	}
	o.attempted = g.sentTotal.Load() + g.preSend.Load()
	o.failed = g.nackTotal() + g.lost.Load() + g.preSend.Load() + g.unexpected.Load() + o.srvDrops + o.tieredLost

	f := st.front
	var aRej, aAll, hAcc, hAll int64
	for c := range f.clientAccepted {
		acc, rej := f.clientAccepted[c], f.clientRejected[c]
		if rs.p.attacker[c] {
			aRej += rej
			aAll += acc + rej
		} else {
			hAcc += acc
			hAll += acc + rej
		}
	}
	o.attackerN, o.honestN = aAll, hAll
	o.attackerReject = ratio(aRej, aAll)
	o.honestAccept = ratio(hAcc, hAll)
	return o
}

// check runs the output checks; any violation fails the run.
func (rs *runState) check(o outcome) error {
	var bad []string
	g, st := rs.g, rs.st
	if sent, want := g.sentTotal.Load(), int64(o.srv.UpdatesReceived)+g.lost.Load(); sent != want {
		bad = append(bad, fmt.Sprintf("sent %d updates but the server received %d and %d were lost to connection failures",
			sent, o.srv.UpdatesReceived, g.lost.Load()))
	}
	if got, want := st.front.decisions(), int64(o.srv.Accepted+o.srv.Deferred+o.srv.Rejected); got != want {
		bad = append(bad, fmt.Sprintf("filter wrapper counted %d decisions, server stats %d", got, want))
	}
	if st.edge != nil {
		if got, want := st.root.decisions(), int64(o.root.Accepted+o.root.Deferred+o.root.Rejected); got != want {
			bad = append(bad, fmt.Sprintf("root filter wrapper counted %d decisions, root stats %d", got, want))
		}
		if o.root.UpdatesReceived > o.srv.Accepted {
			bad = append(bad, fmt.Sprintf("root received %d updates, more than the edge accepted (%d)",
				o.root.UpdatesReceived, o.srv.Accepted))
		}
		if o.standbyV != o.primaryV {
			bad = append(bad, fmt.Sprintf("standby at version %d, primary at %d", o.standbyV, o.primaryV))
		}
	}
	if o.aged > int64(o.srv.DroppedStale) || o.rootAged > int64(o.root.DroppedStale) {
		bad = append(bad, fmt.Sprintf("filters deferred %d (root %d) updates past the staleness limit, servers dropped %d (root %d) as stale",
			o.aged, o.rootAged, o.srv.DroppedStale, o.root.DroppedStale))
	}
	if !o.finite {
		bad = append(bad, "final global parameters are not finite")
	}
	if rs.w.attackers > 0 && o.attackerReject < attackerRejectFloor {
		bad = append(bad, fmt.Sprintf("attacker_reject_ratio %.3f below the floor %.2f", o.attackerReject, attackerRejectFloor))
	}
	if o.attempted < 1 {
		bad = append(bad, "no update was attempted")
	}
	if len(bad) > 0 {
		return fmt.Errorf("output check failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// results builds the JSON result and a human-readable report.
func (rs *runState) results() (*result, []string, error) {
	o := rs.account()
	if err := rs.check(o); err != nil {
		return nil, nil, err
	}
	res := &result{Correct: true, Attempted: o.attempted, Failed: o.failed}
	var report []string
	report = append(report, fmt.Sprintf("attempted %d, failed %d (nacks %d, lost %d, not sent %d, unexpected frames %d, connection errors %d, server drops %d [shed %d, stale %d, malformed %d], lost before root %d [batches shed %d, lost %d])",
		o.attempted, o.failed, rs.g.nackTotal(), rs.g.lost.Load(), rs.g.preSend.Load(), rs.g.unexpected.Load(),
		rs.g.connErrors.Load(), o.srvDrops, o.srv.DroppedShed, o.srv.DroppedStale, o.srv.DroppedMalformed,
		o.tieredLost, o.edge.BatchesShed, o.root.BatchesLost))
	report = append(report, fmt.Sprintf("deferred past the staleness limit, not failures: %d (root %d)", o.aged, o.rootAged))
	if rs.w.attackers > 0 {
		report = append(report, fmt.Sprintf("detection: attacker_reject_ratio %.4f over %d attacker verdicts (floor %.2f), honest_accept_ratio %.4f over %d honest verdicts",
			o.attackerReject, o.attackerN, attackerRejectFloor, o.honestAccept, o.honestN))
	}
	extras := rs.ungated(o)
	if !rs.traced {
		res.Metrics = rs.endToEnd()
		report = append(report, formatReport("end-to-end metrics (gated):", res.Metrics)...)
		report = append(report, formatReport("end-to-end metrics (reported, not gated):", extras)...)
		return res, report, nil
	}
	res.Metrics = rs.perLayer()
	maps.Copy(res.Metrics, extras)
	report = append(report, formatReport("per-layer metrics (traced flood parts) and ungated end-to-end metrics:", res.Metrics)...)
	path := filepath.Join(rs.outputDir, fmt.Sprintf("spans-%s-seed%d.json", rs.w.name, rs.seed))
	if err := rs.tr.write(path); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	report = append(report, fmt.Sprintf("spans written to %s (%d dropped)", path, rs.tr.dropped))
	return res, report, nil
}

// endToEnd computes the untraced run's metrics: each is the median over
// the run's paced or flood parts.
func (rs *runState) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":           {median(rs.setup), "s"},
		"turnaround_p50_ms": {median(rs.turnP50), "ms"},
		"commit_p50_ms":     {median(rs.commitP50), "ms"},
		"updates_per_s":     {rs.floodMedian(false, (*floodPart).updatesPerS), "1/s"},
		"cpu_us_per_update": {rs.floodMedian(false, func(fp *floodPart) float64 {
			return float64((fp.b.cpu - fp.a.cpu).Microseconds()) / float64(fp.verdicts())
		}), "us"},
		"alloc_kb_per_update": {rs.floodMedian(false, func(fp *floodPart) float64 {
			return float64(fp.b.rt.allocBytes-fp.a.rt.allocBytes) / 1024 / float64(fp.verdicts())
		}), "KiB"},
		"rss_peak_mb": {median(rs.memPeaks) / (1 << 20), "MiB"},
	}
}

// ungated computes the end-to-end metrics every run reports but the
// benchmark does not gate on: the tail percentiles, which move with CPU
// time stolen by other tenants of a shared machine far more than the
// gated metrics do, and the ratios that are zero on some workloads.
func (rs *runState) ungated(o outcome) map[string]metric {
	return map[string]metric{
		"turnaround_p99_ms":     {median(rs.turnP99), "ms"},
		"commit_p99_ms":         {median(rs.commitP99), "ms"},
		"failed_ratio":          {ratio(o.failed, o.attempted), "ratio"},
		"attacker_reject_ratio": {o.attackerReject, "ratio"},
		"honest_accept_ratio":   {o.honestAccept, "ratio"},
	}
}

// perLayer computes the traced run's metrics over its traced flood parts.
func (rs *runState) perLayer() map[string]metric {
	tr := rs.tr
	var win windows
	var wallNs int64
	for _, fp := range rs.floods {
		if fp.traced {
			win = append(win, window{fp.a.spanAt, fp.b.spanAt})
			wallNs += fp.b.spanAt - fp.a.spanAt
		}
	}
	d := rs.tracedDelta
	wall := float64(wallNs)
	updates := float64(d(func(c *edgeCounters) int64 { return c.sent }))
	per := func(x int64) float64 { return float64(x) / updates }
	share := func(names ...string) float64 { return float64(sumNs(tr.durations(win, names...))) / wall }
	p50 := func(names ...string) float64 { return quantileMs(tr.durations(win, names...), 0.50) }
	p99 := func(names ...string) float64 { return quantileMs(tr.durations(win, names...), 0.99) }
	srv := func(f func(s *transport.ServerStats) int) float64 {
		return float64(d(func(c *edgeCounters) int64 { return int64(f(&c.srv)) }))
	}
	var ckptSize int64
	for _, fp := range rs.floods {
		if fp.traced {
			ckptSize = fp.b.ckptSize
		}
	}
	verdicts := d(func(c *edgeCounters) int64 { return c.verdicts })
	m := map[string]metric{
		"transport.accepts_per_update":   {per(d(func(c *edgeCounters) int64 { return c.accepts })), "count"},
		"transport.session_ms_p50":       {p50("transport.session"), "ms"},
		"transport.bytes_in_per_update":  {per(d(func(c *edgeCounters) int64 { return c.bytesIn })), "bytes"},
		"transport.bytes_out_per_update": {per(d(func(c *edgeCounters) int64 { return c.bytesOut })), "bytes"},
		"transport.reads_per_update":     {per(d(func(c *edgeCounters) int64 { return c.reads })), "count"},
		"transport.writes_per_update":    {per(d(func(c *edgeCounters) int64 { return c.writes })), "count"},
		"transport.write_ms_per_update":  {per(d(func(c *edgeCounters) int64 { return c.writeNs })) / 1e6, "ms"},
		"transport.round_gap_ms_p50":     {p50("round"), "ms"},
		"transport.round_other_ms_p50":   {quantileMs(tr.selfTimes(win, "round"), 0.50), "ms"},
		"transport.nacks":                {srv(func(s *transport.ServerStats) int { return s.NacksSent }), "count"},
		"transport.shed":                 {srv(func(s *transport.ServerStats) int { return s.DroppedShed }), "count"},
		"transport.stale_dropped":        {srv(func(s *transport.ServerStats) int { return s.DroppedStale }), "count"},
		"core.filter_ms_p50":             {p50("core.filter"), "ms"},
		"core.filter_ms_p99":             {p99("core.filter"), "ms"},
		"core.filter_busy_share":         {share("core.filter"), "ratio"},
		"core.batch_size_mean": {ratio(d(func(c *edgeCounters) int64 { return c.batched }),
			d(func(c *edgeCounters) int64 { return c.calls })), "count"},
		"core.defer_share": {ratio(d(func(c *edgeCounters) int64 { return c.deferred }),
			d(func(c *edgeCounters) int64 { return c.decided })), "ratio"},
		"core.snapshot_ms_p50":       {p50("core.snapshot", "root.core.snapshot"), "ms"},
		"core.diff_ms_p50":           {p50("core.diff", "root.core.diff"), "ms"},
		"fl.combine_ms_p50":          {p50("fl.combine"), "ms"},
		"fl.combine_busy_share":      {share("fl.combine"), "ratio"},
		"topology.uplink_rtt_ms_p50": {p50("topology.uplink"), "ms"},
		"topology.uplink_rtt_ms_p99": {p99("topology.uplink"), "ms"},
		"topology.uplink_bytes_per_batch": {ratio(d(func(c *edgeCounters) int64 { return c.uplink }),
			d(func(c *edgeCounters) int64 { return int64(c.edge.BatchesSent) })), "bytes"},
		"topology.batches_shed":       {float64(d(func(c *edgeCounters) int64 { return int64(c.edge.BatchesShed) })), "count"},
		"topology.batches_lost":       {float64(d(func(c *edgeCounters) int64 { return int64(c.root.BatchesLost) })), "count"},
		"topology.root_filter_ms_p50": {p50("root.core.filter"), "ms"},
		"topology.root_busy_share":    {share("root.core.filter", "root.fl.combine"), "ratio"},
		"replica.bytes_per_record": {ratio(d(func(c *edgeCounters) int64 { return c.repl }),
			d(func(c *edgeCounters) int64 { return int64(c.standby) })), "bytes"},
		"replica.lag_records_max":      {float64(rs.sampler.lagMax), "count"},
		"replica.standby_merge_ms_p50": {p50("replica.merge"), "ms"},
		"checkpoint.writes":            {float64(d(func(c *edgeCounters) int64 { return int64(c.root.Checkpoints) })), "count"},
		"checkpoint.bytes":             {float64(ckptSize), "bytes"},
		"runtime.gc_cpu_share": {float64(d(func(c *edgeCounters) int64 { return int64(c.rt.gcCPU * 1e9) })) /
			float64(d(func(c *edgeCounters) int64 { return int64(c.rt.totalCPU * 1e9) })), "ratio"},
		"runtime.gc_cycles_per_kupdate": {float64(d(func(c *edgeCounters) int64 { return int64(c.rt.gcCycles) })) /
			(float64(verdicts) / 1000), "count"},
		"runtime.heap_peak_mb": {float64(rs.sampler.heapPeak) / (1 << 20), "MiB"},
		"gen.late_p99_ms":      {quantileMs(rs.late, 0.99), "ms"},
		"gen.sent":             {float64(rs.g.sentTotal.Load()), "count"},
		"trace.overhead_share": {1 - rs.floodMedian(true, (*floodPart).updatesPerS)/
			rs.floodMedian(false, (*floodPart).updatesPerS), "ratio"},
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(xs) > 0
}
