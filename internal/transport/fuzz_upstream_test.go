package transport

import (
	"bytes"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
)

// recordedEdgeSession encodes the edge->root half of a realistic two-tier
// session — Hello, a filtered batch carrying a real checkpoint-encoded
// filter snapshot, a replayed batch after a reconnect Hello, heartbeats —
// through the edge's production UpstreamConn, preamble included, so the
// fuzzer starts from bytes an actual deployment would put on the wire.
func recordedEdgeSession(t testing.TB) []byte {
	t.Helper()
	filter, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := []*fl.Update{
		{ClientID: 4, BaseVersion: 2, Staleness: 1, Delta: []float64{0.5, -0.25, 1}, NumSamples: 20},
		{ClientID: 9, BaseVersion: 3, Staleness: 0, Delta: []float64{-1, 0.75, 0.1}, NumSamples: 5},
	}
	if _, err := filter.Filter(batch, 1); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := filter.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Production wraps the opaque snapshot bytes in the checkpoint
	// container (magic, format version, CRC) before they hit the wire.
	state, err := checkpoint.Encode(snapBytes)
	if err != nil {
		t.Fatal(err)
	}

	conn := newByteConn(nil)
	uc := NewUpstreamConn(conn, 0, 0, 0)
	msgs := []EdgeMsg{
		{Hello: &EdgeHello{EdgeID: 1, ModelDim: 3, ClientAddr: "127.0.0.1:9101", NextBatch: 1}},
		{Batch: &BatchMsg{BatchID: 1, EdgeVersion: 1, Updates: batch, FilterState: state}},
		{Heartbeat: true},
		// Reconnect: re-Hello, then replay the unacknowledged batch.
		{Hello: &EdgeHello{EdgeID: 1, ModelDim: 3, ClientAddr: "127.0.0.1:9101", NextBatch: 2}},
		{Batch: &BatchMsg{BatchID: 1, EdgeVersion: 1, Updates: batch, FilterState: state}},
		{Heartbeat: true},
	}
	for i := range msgs {
		if err := uc.WriteEdge(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// recordedRootSession encodes the root->edge half through the root's
// production UpstreamConn: task pushes with acks, a shard-map push, and a
// filter-state handoff in the checkpoint container format.
func recordedRootSession(t testing.TB) []byte {
	t.Helper()
	filter, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filter.Filter([]*fl.Update{
		{ClientID: 2, Staleness: 0, Delta: []float64{1, 2, 3}, NumSamples: 8},
	}, 1); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := filter.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	handoff, err := checkpoint.Encode(snapBytes)
	if err != nil {
		t.Fatal(err)
	}
	shards := &ShardMap{Version: 3, Edges: []ShardEntry{
		{EdgeID: 1, Addr: "127.0.0.1:9101"},
		{EdgeID: 2, Addr: "127.0.0.1:9102"},
	}}

	conn := newByteConn(nil)
	uc := AcceptUpstreamConn(conn, 0, 0, 0)
	msgs := []RootMsg{
		{Task: &Task{Version: 0, Params: []float64{0, 0, 0}}, Shards: shards},
		{Task: &Task{Version: 1, Params: []float64{0.5, -1, 2}}, Ack: 1},
		{Pong: true},
		{Task: &Task{Version: 2, Params: []float64{1, -2, 4}}, Ack: 2, Shards: shards, Handoff: handoff},
		{Nack: NackMalformed},
		{Goodbye: true},
	}
	for i := range msgs {
		if err := uc.WriteRoot(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// FuzzDecodeEdgeMsg drives the root's wire-decode path — the acceptor
// UpstreamConn, preamble check and frame decoder behind the byte budget,
// exactly as the root session builds it — with adversarial bytes. Same
// contract as FuzzDecodeClientMsg: typed errors or decoded messages,
// never a panic, never unbounded memory.
func FuzzDecodeEdgeMsg(f *testing.F) {
	session := recordedEdgeSession(f)
	f.Add(session)
	f.Add(session[:len(session)/2])    // truncated mid-frame
	f.Add(session[len(preamble):])     // missing preamble
	f.Add([]byte{})                    // empty stream
	f.Add([]byte{0xff, 0xff, 0xff})    // junk length prefix
	f.Add(bytes.Repeat([]byte{7}, 64)) // repetitive garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		uc := AcceptUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := uc.ReadEdge()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("untyped error %v", err)
				}
				return // typed error: the root drops the connection here
			}
			// Mirror the nil-checks the root session performs, plus the
			// validation a decoded batch goes through, so fuzzed payloads
			// cannot find a panic past the decode layer either.
			switch {
			case msg.Hello != nil:
				_ = msg.Hello.EdgeID
				_ = len(msg.Hello.ClientAddr)
			case msg.Batch != nil:
				for _, u := range msg.Batch.Updates {
					if u != nil {
						_ = len(u.Delta)
					}
				}
				if len(msg.Batch.FilterState) > 0 {
					// Corrupt handoffs must surface as typed errors at the
					// container layer, and garbage that survives the CRC must
					// still be rejected by the filter's own state decoder —
					// never a panic in either layer.
					var inner []byte
					if checkpoint.Decode(msg.Batch.FilterState, &inner, "fuzz") == nil {
						if af, err := core.New(core.DefaultConfig()); err == nil {
							_ = af.MergeState(inner)
						}
					}
				}
			}
		}
	})
}

// FuzzDecodeRootMsg drives the edge-side decode of root replies with the
// same contract.
func FuzzDecodeRootMsg(f *testing.F) {
	session := recordedRootSession(f)
	f.Add(session)
	f.Add(session[:len(session)/3])
	f.Add(session[2:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		uc := NewUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := uc.ReadRoot()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("untyped error %v", err)
				}
				return // typed error: the edge redials here
			}
			if msg.Task != nil {
				_ = len(msg.Task.Params)
			}
			if msg.Shards != nil {
				// A hostile shard map must be rejected by validation, not
				// crash the edge.
				_ = msg.Shards.Validate()
				_ = msg.Shards.HomeIndex(7)
			}
			if len(msg.Handoff) > 0 {
				var inner []byte
				if checkpoint.Decode(msg.Handoff, &inner, "fuzz") == nil {
					if af, err := core.New(core.DefaultConfig()); err == nil {
						_ = af.MergeState(inner)
					}
				}
			}
		}
	})
}

// TestUpstreamFuzzSeedsDecode guards the recorded-session seeds against
// rot: both halves must decode cleanly end to end through the production
// decode stack, including the embedded checkpoint containers.
func TestUpstreamFuzzSeedsDecode(t *testing.T) {
	root := AcceptUpstreamConn(newByteConn(recordedEdgeSession(t)), binFuzzBudget, 0, 0)
	batches := 0
	for i := 0; i < 6; i++ {
		msg, err := root.ReadEdge()
		if err != nil {
			t.Fatalf("edge session message %d: %v", i, err)
		}
		if msg.Batch != nil {
			batches++
			var inner []byte
			if err := checkpoint.Decode(msg.Batch.FilterState, &inner, "seed"); err != nil {
				t.Fatalf("edge session message %d: filter snapshot not in checkpoint container: %v", i, err)
			}
			restored, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreState(inner); err != nil {
				t.Fatalf("edge session message %d: snapshot does not restore: %v", i, err)
			}
		}
	}
	if batches != 2 {
		t.Fatalf("edge session decoded %d batches, want 2", batches)
	}

	edge := NewUpstreamConn(newByteConn(recordedRootSession(t)), binFuzzBudget, 0, 0)
	handoffs := 0
	for i := 0; i < 6; i++ {
		msg, err := edge.ReadRoot()
		if err != nil {
			t.Fatalf("root session message %d: %v", i, err)
		}
		if len(msg.Handoff) > 0 {
			var inner []byte
			if err := checkpoint.Decode(msg.Handoff, &inner, "seed"); err != nil {
				t.Fatalf("root session message %d: handoff does not decode: %v", i, err)
			}
			restored, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.MergeState(inner); err != nil {
				t.Fatalf("root session message %d: handoff does not merge: %v", i, err)
			}
			handoffs++
		}
	}
	if handoffs != 1 {
		t.Fatalf("root session decoded %d handoffs, want 1", handoffs)
	}
}
