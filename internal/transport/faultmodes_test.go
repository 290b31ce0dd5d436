package transport

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// recordConn is a net.Conn stub that records everything written to it, so
// the delivery-mangling fault modes can be asserted byte for byte.
type recordConn struct {
	nopConn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

func (r *recordConn) sent() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.String()
}

func TestFaultConnDupWrite(t *testing.T) {
	rec := &recordConn{}
	fc := NewFaultConn(rec, FaultConfig{Seed: 1, DupWriteProb: 1})
	n, err := fc.Write([]byte("abc"))
	if err != nil || n != 3 {
		t.Fatalf("write = (%d, %v), want (3, nil)", n, err)
	}
	if got := rec.sent(); got != "abcabc" {
		t.Errorf("peer saw %q, want the payload duplicated back-to-back", got)
	}
}

func TestFaultConnDropWrite(t *testing.T) {
	rec := &recordConn{}
	fc := NewFaultConn(rec, FaultConfig{Seed: 1, DropWriteProb: 1})
	n, err := fc.Write([]byte("abc"))
	if err != nil || n != 3 {
		t.Fatalf("dropped write must still report success, got (%d, %v)", n, err)
	}
	if got := rec.sent(); got != "" {
		t.Errorf("peer saw %q, want nothing (silent outbound drop)", got)
	}
}

func TestFaultConnReorderWrite(t *testing.T) {
	rec := &recordConn{}
	fc := NewFaultConn(rec, FaultConfig{Seed: 1, ReorderWriteProb: 1})
	// With probability 1 the hold/release states alternate: the first
	// write is parked, the second releases it after itself — the swap.
	if _, err := fc.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if got := rec.sent(); got != "" {
		t.Fatalf("held payload leaked early: peer saw %q", got)
	}
	if _, err := fc.Write([]byte("bb")); err != nil {
		t.Fatal(err)
	}
	if got := rec.sent(); got != "bbaaaa" {
		t.Errorf("peer saw %q, want \"bbaaaa\" (two messages swapped)", got)
	}
	// The third write is parked again; Close discards it as lost in
	// flight rather than delivering it after the connection died.
	if _, err := fc.Write([]byte("cc")); err != nil {
		t.Fatal(err)
	}
	_ = fc.Close()
	if got := rec.sent(); got != "bbaaaa" {
		t.Errorf("peer saw %q after close, want the held payload discarded", got)
	}
}

func TestFaultConnReadStallOneShot(t *testing.T) {
	const stall = 150 * time.Millisecond
	fc := NewFaultConn(nopConn{}, FaultConfig{
		Seed:               1,
		StallReadsAfterOps: 1,
		StallDuration:      stall,
	})
	buf := make([]byte, 4)
	start := time.Now()
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("first read returned after %v, want a >= %v stall", elapsed, stall)
	}
	// The stall is one-shot: later reads proceed at full speed.
	start = time.Now()
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Errorf("second read took %v, want the stall to have disarmed", elapsed)
	}
}

// A deployment whose flaky clients suffer duplicated, reordered and
// silently dropped writes must still complete: duplicates are absorbed as
// redundant updates, mangled frame streams kill the connection and the
// client reconnects, and a dropped message is broken out of by the
// server's read deadline.
func TestDeploymentSurvivesLossyWrites(t *testing.T) {
	const (
		numClients = 6
		lossy      = 3
		goal       = 3
		rounds     = 3
	)
	server, err := NewServer(ServerConfig{
		InitialParams:   initialParams(t),
		AggregationGoal: goal,
		StalenessLimit:  10,
		Rounds:          rounds,
		ReadTimeout:     500 * time.Millisecond,
		WriteTimeout:    10 * time.Second,
		MaxMessageBytes: 1 << 20,
		RoundTimeout:    300 * time.Millisecond,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(lis) }()

	parts := testData(t, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		cfg := ClientConfig{
			ID: i, Data: parts[i], Model: testModelConfig(), Trainer: testTrainer(),
			Seed:           int64(100 + i),
			ThinkTime:      2 * time.Millisecond,
			MaxRetries:     40,
			RetryBaseDelay: time.Millisecond,
			RetryMaxDelay:  20 * time.Millisecond,
		}
		if i < lossy {
			cfg.Dial = FaultDialer(FaultConfig{
				Seed:             int64(2000 + i),
				DupWriteProb:     0.05,
				ReorderWriteProb: 0.05,
				DropWriteProb:    0.05,
			})
		}
		client, err := NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = client.Run(lis.Addr().String())
		}()
	}

	select {
	case <-server.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("lossy deployment did not finish within 60s")
	}
	if err := server.Close(); err != nil {
		t.Logf("close: %v", err)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := server.Version(); got != rounds {
		t.Errorf("version = %d, want %d", got, rounds)
	}
	stats := server.Stats()
	if stats.Accepted == 0 {
		t.Error("no updates accepted through the lossy network")
	}
	t.Logf("lossy deployment: %d received, %d accepted, %d reconnects",
		stats.UpdatesReceived, stats.Accepted, stats.Reconnects)
}
