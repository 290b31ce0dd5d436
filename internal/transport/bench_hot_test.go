package transport

import (
	"net"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// BenchmarkHotWireEdgeBatch drives one edge batch per iteration through
// an initiator/acceptor UpstreamConn pair over an in-memory pipe — the
// annotated //afl:hotpath wire codec end to end, write and read sides
// both counted in allocs/op. It is gated against the committed BENCH_8
// baseline by cmd/benchgate. Run via `make bench-hot`.
func BenchmarkHotWireEdgeBatch(b *testing.B) {
	const dim = 256
	edgeConn, rootConn := net.Pipe()
	defer edgeConn.Close()
	defer rootConn.Close()
	edge := NewUpstreamConn(edgeConn, 0, 0, 0)
	root := AcceptUpstreamConn(rootConn, 0, 0, 0)

	msg := &EdgeMsg{Batch: &BatchMsg{
		BatchID: 1,
		Updates: []*fl.Update{{ClientID: 1, Delta: make([]float64, dim), NumSamples: 10}},
	}}
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(errc)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := root.ReadEdge(); err != nil {
				errc <- err
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Batch.BatchID = uint64(i + 1)
		if err := edge.WriteEdge(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(done)
	edgeConn.Close()
	if err := <-errc; err != nil && b.N > 0 {
		// The reader exits with a closed-pipe error once the bench ends;
		// anything before that would have stalled the writer anyway.
		_ = err
	}
}
