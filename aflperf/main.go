// Command aflperf is the repository benchmark: it runs the real serving
// stack in-process over loopback TCP and drives it from a single-process
// load generator speaking the binary frame protocol. See README.md.
//
// Usage:
//
//	bash aflperf/run.sh --workload crossdevice --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits 1
// without printing it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/asyncfl/asyncfilter/internal/randx"
)

// workload is one traffic mix the benchmark runs.
type workload struct {
	name      string
	dim       int
	clients   int
	attackers int
	attack    string
	goal      int
	tiered    bool
	// session: every update is a fresh session; otherwise each of the
	// generator's connections keeps window updates pipelined.
	session bool
	window  int
	// rate is the paced parts' offered load in updates/s: about a fifth
	// of the flood throughput measured on a 2-vCPU machine when the
	// benchmark was defined, and fixed since. It is never derived from the
	// code under test. At that load the paced latencies stay far from
	// saturation when other tenants of a shared machine take a share of
	// its CPU.
	rate float64
}

// genConns is the number of client connections the generator keeps open
// at once (the CPUs of the machine the benchmark was defined on); fewer
// on a smaller machine.
const genConns = 2

func nprocs() int {
	if n := runtime.NumCPU(); n < genConns {
		return n
	}
	return genConns
}

// Model sizes: the repository's CIFAR-10/CINIC-10 MLP, and LeNet-5 as
// the paper trains it on CIFAR-10.
const (
	dimMLP   = 2410
	dimLeNet = 62006
)

func workloads() []*workload {
	return []*workload{
		{name: "crossdevice", dim: dimMLP, clients: 100, attackers: 20, attack: "gd", goal: 40, session: true, rate: 1500},
		{name: "silo-large", dim: dimLeNet, clients: nprocs(), goal: 10, window: 4, rate: 400},
		{name: "tiered", dim: dimMLP, clients: nprocs(), goal: 40, tiered: true, window: 8, rate: 1500},
	}
}

// attackerRejectFloor is the crossdevice detection floor: with GD
// attackers at a fifth of the population, the filter must reject at
// least this share of attacker updates or the run fails.
const attackerRejectFloor = 0.2

// setupRepeats is how many times a run builds the stack to time set-up;
// the reported setup_s is the median.
const setupRepeats = 31

// setupWarmups untimed builds precede the timed ones. The first builds of
// a process fault in fresh memory and run code for the first time, and
// took up to twice as long as the later ones.
const setupWarmups = 5

// runDeadline fails a run that has not finished instead of letting it
// hang.
const runDeadline = 170 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: crossdevice, silo-large or tiered")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 24, "measured seconds, half paced and half flood")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	deadline := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "aflperf: run exceeded its %v deadline\n", runDeadline)
		os.Exit(3)
	})
	defer deadline.Stop()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "aflperf:", err)
		os.Exit(1)
	}
}

// runState carries one run's deployment, generator and measurements.
type runState struct {
	w      *workload
	seed   int64
	traced bool
	p      *pool
	st     *stack
	g      *gen
	tr     *tracer
	tmp    string

	setup []float64
	// Per paced part: turnaround and commit percentiles (ms). late holds
	// how late every recorded paced update was sent.
	turnP50, turnP99, commitP50, commitP99 []float64
	late                                   []int64
	floods                                 []floodPart
	// memPeaks is, per cycle, the most memory the Go runtime held from
	// the OS.
	memPeaks  []float64
	sampler   *sampler
	outputDir string
}

func run(name string, seed int64, dur time.Duration, traced bool) error {
	var w *workload
	for _, c := range workloads() {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if dur < 2*cycles*100*time.Millisecond {
		return fmt.Errorf("--seconds must be at least %.1f", (2 * cycles * 100 * time.Millisecond).Seconds())
	}
	out := filepath.Join(".bench_build", "aflperf-out")
	tmp := filepath.Join(out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	p, err := newPool(poolSpec{
		dim:       w.dim,
		clients:   w.clients,
		attackers: w.attackers,
		attack:    w.attack,
		buckets:   drawnStaleness + 1,
	}, seed)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d pool_digest %s\n", w.name, seed, p.digest)

	rs := &runState{w: w, seed: seed, traced: traced, p: p, tmp: tmp, outputDir: out}
	if traced {
		rs.tr = newTracer()
	}
	if err := rs.setUp(); err != nil {
		return err
	}
	measureErr := rs.measure(dur)
	closeErr := rs.tearDown()
	if err := errors.Join(measureErr, closeErr); err != nil {
		return err
	}
	res, report, err := rs.results()
	if err != nil {
		return err
	}
	for _, line := range report {
		fmt.Println(line)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setUp builds the stack setupWarmups+setupRepeats times, timing all but
// the warm-ups from the first server constructor until every generator
// connection holds its first task (and, for tiered, the standby attached
// and the edge uplink is up). Each build starts after a collection, so
// the garbage of the previous one is not collected inside its timing.
// The last build stays up for the measurement.
func (rs *runState) setUp() error {
	zipf, err := randx.NewZipf(1.2, drawnStaleness+1)
	if err != nil {
		return err
	}
	for i := 0; i < setupWarmups+setupRepeats; i++ {
		last := i == setupWarmups+setupRepeats-1
		var tr *tracer
		if last {
			tr = rs.tr
		}
		runtime.GC()
		start := time.Now()
		st, err := buildStack(rs.w, rs.seed, rs.tmp, tr)
		if err != nil {
			return fmt.Errorf("build stack: %w", err)
		}
		g := &gen{p: rs.p, addr: st.addr, window: rs.w.window, session: rs.w.session, zipf: zipf, epoch: start}
		g.saturated = st.saturated
		openErr := g.openConns(rs.seed)
		for openErr == nil && !st.ready() {
			if time.Since(start) > 20*time.Second {
				openErr = errors.New("tiered links not up within 20s")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if openErr != nil {
			g.closeConns()
			return errors.Join(fmt.Errorf("set-up: %w", openErr), st.close())
		}
		if i >= setupWarmups {
			rs.setup = append(rs.setup, time.Since(start).Seconds())
		}
		if last {
			rs.st, rs.g = st, g
			if rs.w.session {
				// The set-up sessions only prove the server answers;
				// every measured update opens its own session.
				g.closeConns()
				g.conns = nil
			}
			break
		}
		g.closeConns()
		if err := st.close(); err != nil {
			return err
		}
	}
	return nil
}

// openConns opens the generator's connections, each holding its first
// task. Pipelined connections get their reader goroutines.
func (g *gen) openConns(seed int64) error {
	n := nprocs()
	for c := 0; c < n; c++ {
		pc, err := g.openPipe(c, seed+int64(c)*104729)
		if err != nil {
			return err
		}
		g.conns = append(g.conns, pc)
		go pc.readLoop()
	}
	return nil
}

// cycles is how many times a run alternates a paced part and a flood
// part. Each end-to-end metric is the median over the cycles, so a burst
// of interference from outside the process that spans one or two parts
// does not move it.
const cycles = 8

// pacedWarmup is how long each paced part runs unrecorded before its
// measured part, so the backlog a flood part leaves behind (and, in the
// first cycle, heap growth after set-up) stays out of the percentiles.
const pacedWarmup = 500 * time.Millisecond

// measure alternates paced and flood parts. In a traced run every other
// flood part is traced, so the untraced parts give the tracing overhead.
func (rs *runState) measure(dur time.Duration) error {
	part := dur / (2 * cycles)
	warm := min(pacedWarmup, part)
	rs.sampler = startSampler(rs.st, rs.tr)
	defer rs.sampler.stop()
	for c := 0; c < cycles; c++ {
		seed := rs.seed + int64(c)*1000
		if err := rs.pacedPart(warm, part, seed+1); err != nil {
			return fmt.Errorf("paced part %d: %w", c, err)
		}
		if err := rs.floodPart(part, rs.traced && c%2 == 1, seed+2); err != nil {
			return fmt.Errorf("flood part %d: %w", c, err)
		}
		rs.memPeaks = append(rs.memPeaks, float64(rs.sampler.takePeak()))
	}
	return nil
}

// pacedPart runs one open-loop part and keeps its percentiles.
func (rs *runState) pacedPart(warm, part time.Duration, seed int64) error {
	g := rs.g
	ph := &phase{start: g.now() + int64(time.Millisecond)}
	g.initPaced(ph, rs.w.rate, warm, part)
	if err := g.runPhase(ph, warm+part, seed); err != nil {
		return err
	}
	turn, commit, late := g.pacedLatencies(ph)
	rs.turnP50 = append(rs.turnP50, quantileMs(turn, 0.50))
	rs.turnP99 = append(rs.turnP99, quantileMs(turn, 0.99))
	rs.commitP50 = append(rs.commitP50, quantileMs(commit, 0.50))
	rs.commitP99 = append(rs.commitP99, quantileMs(commit, 0.99))
	rs.late = append(rs.late, late...)
	return nil
}

// floodPart runs one closed-loop part between two counter snapshots.
func (rs *runState) floodPart(part time.Duration, traced bool, seed int64) error {
	fp := floodPart{traced: traced}
	if traced {
		rs.tr.on.Store(true)
		defer rs.tr.on.Store(false)
	}
	fp.a = snapshot(rs)
	err := rs.g.runPhase(&phase{start: rs.g.now()}, part, seed)
	fp.b = snapshot(rs)
	rs.floods = append(rs.floods, fp)
	if err == nil && rs.st.edge != nil {
		// The edge's backlog of batches drains before the next paced
		// part, which would otherwise measure the flood's aftermath.
		err = rs.st.settleTiered(20 * time.Second)
	}
	return err
}

// tearDown waits for the tiered uplink and standby to catch up, then
// stops the generator and the stack.
func (rs *runState) tearDown() error {
	var errs []error
	if rs.st.edge != nil {
		errs = append(errs, rs.st.settleTiered(20*time.Second))
	}
	rs.g.closeConns()
	errs = append(errs, rs.st.close())
	return errors.Join(errs...)
}

// settleTiered waits until the edge has no unacknowledged batch and the
// standby mirrors the primary's version.
func (st *stack) settleTiered(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		pending := st.edgeBacklog()
		if pending <= 0 && st.sRoot.Version() == st.pRoot.Version() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tiered stack did not settle within %v: %d batches pending, primary v%d, standby v%d",
				limit, pending, st.pRoot.Version(), st.sRoot.Version())
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// formatReport renders metrics one per line, sorted by name.
func formatReport(title string, m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := []string{title}
	for _, k := range names {
		v := m[k]
		val := fmt.Sprintf("%.6g", v.Value)
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			val = fmt.Sprint(v.Value)
		}
		lines = append(lines, fmt.Sprintf("  %-34s %14s %s", k, val, v.Unit))
	}
	return lines
}
