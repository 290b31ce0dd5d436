package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

var lockstep = workload{name: "lockstep", dim: 64, clients: 4, attackers: 1, attack: "gd", goal: 8, window: 1}

func lockstepPool(t *testing.T, seed int64) *pool {
	t.Helper()
	p, err := newPool(poolSpec{
		dim:       lockstep.dim,
		clients:   lockstep.clients,
		attackers: lockstep.attackers,
		attack:    lockstep.attack,
		buckets:   drawnStaleness + 1,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolDigestIsSeeded(t *testing.T) {
	a, b, c := lockstepPool(t, 7), lockstepPool(t, 7), lockstepPool(t, 8)
	if a.digest != b.digest {
		t.Fatalf("same seed, different pools: %s vs %s", a.digest, b.digest)
	}
	if !reflect.DeepEqual(a.slab, b.slab) || !reflect.DeepEqual(a.hello, b.hello) {
		t.Fatal("same seed, different pool bytes under an equal digest")
	}
	if a.digest == c.digest {
		t.Fatal("different seeds gave the same pool")
	}
}

// TestWrapperInterfacesMatch pins the filter wrapper to exactly the
// optional interfaces *core.AsyncFilter implements.
func TestWrapperInterfacesMatch(t *testing.T) {
	optional := []reflect.Type{
		reflect.TypeOf((*fl.RoundObserver)(nil)).Elem(),
		reflect.TypeOf((*fl.ObservableFilter)(nil)).Elem(),
		reflect.TypeOf((*fl.StateSnapshotter)(nil)).Elem(),
		reflect.TypeOf((*fl.StateMerger)(nil)).Elem(),
		reflect.TypeOf((*fl.StateDiffer)(nil)).Elem(),
	}
	inner := reflect.TypeOf((*core.AsyncFilter)(nil))
	wrapper := reflect.TypeOf((*countingFilter)(nil))
	for _, it := range optional {
		if inner.Implements(it) != wrapper.Implements(it) {
			t.Errorf("%v: AsyncFilter implements it = %v, wrapper = %v", it, inner.Implements(it), wrapper.Implements(it))
		}
	}
}

// driveLockstep sends n updates over one connection, each after the
// previous reply (window 1), so the run is deterministic.
func driveLockstep(t *testing.T, p *pool, addr string, n int) {
	t.Helper()
	zipf, err := randx.NewZipf(1.2, drawnStaleness+1)
	if err != nil {
		t.Fatal(err)
	}
	g := &gen{p: p, addr: addr, window: 1, zipf: zipf, epoch: time.Now()}
	pc, err := g.openPipe(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.conn.Close()
	_ = pc.conn.SetDeadline(time.Now().Add(time.Minute))
	for i := 0; i < n; i++ {
		if err := pc.send(); err != nil {
			t.Fatal(err)
		}
		r, err := pc.fr.read()
		if err != nil {
			t.Fatal(err)
		}
		if !r.task || r.nack != 0 {
			t.Fatalf("update %d refused: %+v", i, r)
		}
		pc.latest.Store(r.version)
	}
}

// TestWrappedRunMatchesUnwrapped runs one deterministic lockstep
// workload against the benchmark's traced, wrapped stack and against a
// plain server, and demands byte-identical filter state and model.
func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	const seed, updates = 3, 400
	p := lockstepPool(t, seed)
	w := lockstep

	tr := newTracer()
	tr.on.Store(true)
	st, err := buildStack(&w, seed, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	driveLockstep(t, p, st.addr, updates)
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	wrappedState, err := st.front.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	wrappedParams := st.flat.FinalParams()
	if len(tr.durations(windows{{0, tr.now()}}, "core.filter")) == 0 {
		t.Fatal("traced run recorded no filter spans")
	}

	f, err := newAsyncFilter(seed)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(serverConfig(&w, initialParams(w.dim, seed)), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	driveLockstep(t, p, lis.Addr().String(), updates)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-served
	plainState, err := f.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	if got := srv.Stats().Rounds; got < updates/w.goal/2 {
		t.Fatalf("only %d rounds ran", got)
	}
	if !bytes.Equal(wrappedState, plainState) {
		t.Error("wrapped and unwrapped runs ended with different filter state")
	}
	if !reflect.DeepEqual(wrappedParams, srv.FinalParams()) {
		t.Error("wrapped and unwrapped runs ended with different global models")
	}
	if got, want := st.front.decisions(), int64(srv.Stats().Accepted+srv.Stats().Deferred+srv.Stats().Rejected); got != want {
		t.Errorf("wrapper counted %d decisions, plain server %d", got, want)
	}
}

// TestGeneratorSendReadDoesNotAllocate checks the generator's steady
// state against a minimal frame echo peer: patching and sending an update
// frame and decoding a raw task reply allocate nothing.
func TestGeneratorSendReadDoesNotAllocate(t *testing.T) {
	p := lockstepPool(t, 5)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	task := make([]byte, frameHdrLen+24+8*p.spec.dim)
	task[0] = frameTask
	binary.LittleEndian.PutUint32(task[1:frameHdrLen], uint32(len(task)-frameHdrLen))
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1<<16)
		// Preamble, then one frame per request, each answered by a task.
		if _, err := io.ReadFull(conn, buf[:len(binaryPreamble)]); err != nil {
			return
		}
		for {
			if _, err := io.ReadFull(conn, buf[:frameHdrLen]); err != nil {
				return
			}
			n := int(binary.LittleEndian.Uint32(buf[1:frameHdrLen]))
			if _, err := io.ReadFull(conn, buf[:n]); err != nil {
				return
			}
			if _, err := conn.Write(task); err != nil {
				return
			}
		}
	}()
	zipf, err := randx.NewZipf(1.2, drawnStaleness+1)
	if err != nil {
		t.Fatal(err)
	}
	g := &gen{p: p, addr: lis.Addr().String(), window: 1, zipf: zipf, epoch: time.Now()}
	pc, err := g.openPipe(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := pc.send(); err != nil {
			t.Fatal(err)
		}
		if _, err := pc.fr.read(); err != nil {
			t.Fatal(err)
		}
	})
	pc.conn.Close()
	<-done
	if allocs != 0 {
		t.Fatalf("send+read allocated %.1f times per update", allocs)
	}
}
