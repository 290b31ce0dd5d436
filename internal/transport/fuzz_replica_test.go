package transport

import (
	"bytes"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
)

// recordedReplicaSession encodes the standby->primary half of a realistic
// replication session — attach Hello, per-push acknowledgements, a
// re-attach Hello demanding a full sync — through the standby's
// production UpstreamConn, preamble included, so the fuzzer starts from
// bytes a real deployment would put on the replication wire.
func recordedReplicaSession(t testing.TB) []byte {
	t.Helper()
	conn := newByteConn(nil)
	uc := NewUpstreamConn(conn, 0, 0, 0)
	msgs := []ReplicaMsg{
		{Hello: &ReplHello{NodeID: 1, Epoch: 0, NextSeq: 1}},
		{AckSeq: 1, Epoch: 0},
		{AckSeq: 2, Epoch: 0},
		// Re-attach after a failed incremental apply: full sync demanded,
		// and the standby has meanwhile observed a newer epoch.
		{Hello: &ReplHello{NodeID: 1, Epoch: 2, NextSeq: 3, FullSync: true}},
		{AckSeq: 3, Epoch: 2},
	}
	for i := range msgs {
		if err := uc.WriteReplica(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// recordedPrimarySession encodes the primary->standby half through the
// primary's production UpstreamConn: a full
// checkpoint snapshot, an initial log record carrying a complete filter
// snapshot, an incremental record carrying a mergeable CMA delta,
// heartbeats, a fencing nack and a clean goodbye.
func recordedPrimarySession(t testing.TB) []byte {
	t.Helper()
	filter, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	batch := []*fl.Update{
		{ClientID: 3, BaseVersion: 1, Staleness: 0, Delta: []float64{0.5, -1, 2}, NumSamples: 12},
		{ClientID: 8, BaseVersion: 1, Staleness: 1, Delta: []float64{-0.25, 0.5, 1}, NumSamples: 4},
	}
	if _, err := filter.Filter(batch, 1); err != nil {
		t.Fatal(err)
	}
	full, err := filter.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := filter.Filter(batch, 2); err != nil {
		t.Fatal(err)
	}
	delta, err := filter.DiffState(full)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot push carries the primary's durable root state in the
	// checkpoint container format; the container layer is what transport
	// guards, so any CRC-sealed payload exercises it.
	snapshot, err := checkpoint.Encode(full)
	if err != nil {
		t.Fatal(err)
	}

	conn := newByteConn(nil)
	uc := AcceptUpstreamConn(conn, 0, 0, 0)
	msgs := []PrimaryMsg{
		{Snapshot: snapshot, Epoch: 1, LatestSeq: 1},
		{Record: &ReplRecord{
			Seq: 2, Epoch: 1, EdgeID: 0, BatchID: 5, EdgeAddr: "127.0.0.1:9201",
			ShardVersion: 1, Delta: []float64{0.5, -1, 2},
			Accepted: 2, FilterState: full, FilterFull: true,
		}, Epoch: 1, LatestSeq: 2},
		{Record: &ReplRecord{
			Seq: 3, Epoch: 1, EdgeID: 1, BatchID: 2, EdgeAddr: "127.0.0.1:9202",
			ShardVersion: 2, Delta: []float64{-0.25, 0.5, 1},
			Accepted: 1, Rejected: 1, FilterState: delta,
		}, Epoch: 1, LatestSeq: 3},
		{Heartbeat: true, Epoch: 1, LatestSeq: 3},
		{Nack: NackFenced, Epoch: 4},
		{Goodbye: true, Epoch: 1, LatestSeq: 3},
	}
	for i := range msgs {
		if err := uc.WritePrimary(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// FuzzDecodeReplicaMsg drives the primary's replication decode path — the
// acceptor UpstreamConn, preamble check and frame decoder behind the byte
// budget, exactly as the standby handler builds it — with adversarial
// bytes. Same contract as the other
// wire fuzzers: typed errors or decoded messages, never a panic, never
// unbounded memory.
func FuzzDecodeReplicaMsg(f *testing.F) {
	session := recordedReplicaSession(f)
	f.Add(session)
	f.Add(session[:len(session)/2])    // truncated mid-frame
	f.Add(session[len(preamble):])     // missing preamble
	f.Add([]byte{})                    // empty stream
	f.Add([]byte{0xff, 0xff, 0xff})    // junk length prefix
	f.Add(bytes.Repeat([]byte{5}, 64)) // repetitive garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		uc := AcceptUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := uc.ReadReplica()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("untyped error %v", err)
				}
				return // typed error: the primary drops the standby here
			}
			// Mirror what the primary does with a decoded message: hello
			// validation, then ack/epoch bookkeeping.
			if msg.Hello != nil {
				_ = msg.Hello.Validate()
			}
			_, _ = msg.AckSeq, msg.Epoch
		}
	})
}

// FuzzDecodePrimaryMsg drives the standby-side decode of primary pushes
// with the same contract, including the layers behind the envelope: a
// hostile Snapshot must die in the checkpoint container's CRC/type
// checks, and a hostile Record.FilterState must be rejected by the
// filter's own state decoder — never a panic in any layer.
func FuzzDecodePrimaryMsg(f *testing.F) {
	session := recordedPrimarySession(f)
	f.Add(session)
	f.Add(session[:len(session)/3])
	f.Add(session[2:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xCD}, 48))

	f.Fuzz(func(t *testing.T, data []byte) {
		uc := NewUpstreamConn(newByteConn(data), binFuzzBudget, 0, 0)
		for i := 0; i < 16; i++ {
			msg, err := uc.ReadPrimary()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("untyped error %v", err)
				}
				return // typed error: the standby rotates upstreams here
			}
			if len(msg.Snapshot) > 0 {
				var inner []byte
				_ = checkpoint.Decode(msg.Snapshot, &inner, "fuzz")
			}
			if msg.Record != nil {
				_ = len(msg.Record.Delta)
				_ = len(msg.Record.EdgeAddr)
				if len(msg.Record.FilterState) > 0 {
					if af, err := core.New(core.DefaultConfig()); err == nil {
						if msg.Record.FilterFull {
							_ = af.RestoreState(msg.Record.FilterState)
						} else {
							_ = af.MergeState(msg.Record.FilterState)
						}
					}
				}
			}
		}
	})
}

// TestReplicaFuzzSeedsDecode guards the recorded replication sessions
// against rot: both halves must decode cleanly end to end through the
// production decode stack, including the checkpoint container and the
// filter-state payloads the records carry.
func TestReplicaFuzzSeedsDecode(t *testing.T) {
	primary := AcceptUpstreamConn(newByteConn(recordedReplicaSession(t)), binFuzzBudget, 0, 0)
	hellos := 0
	for i := 0; i < 5; i++ {
		msg, err := primary.ReadReplica()
		if err != nil {
			t.Fatalf("replica session message %d: %v", i, err)
		}
		if msg.Hello != nil {
			if err := msg.Hello.Validate(); err != nil {
				t.Fatalf("replica session message %d: recorded hello invalid: %v", i, err)
			}
			hellos++
		}
	}
	if hellos != 2 {
		t.Fatalf("replica session decoded %d hellos, want 2", hellos)
	}

	standby := NewUpstreamConn(newByteConn(recordedPrimarySession(t)), binFuzzBudget, 0, 0)
	records := 0
	for i := 0; i < 6; i++ {
		msg, err := standby.ReadPrimary()
		if err != nil {
			t.Fatalf("primary session message %d: %v", i, err)
		}
		if len(msg.Snapshot) > 0 {
			var inner []byte
			if err := checkpoint.Decode(msg.Snapshot, &inner, "seed"); err != nil {
				t.Fatalf("primary session message %d: snapshot not in checkpoint container: %v", i, err)
			}
		}
		if msg.Record == nil {
			continue
		}
		records++
		restored, err := core.New(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if msg.Record.FilterFull {
			if err := restored.RestoreState(msg.Record.FilterState); err != nil {
				t.Fatalf("primary session message %d: full filter state does not restore: %v", i, err)
			}
		} else if err := restored.MergeState(msg.Record.FilterState); err != nil {
			t.Fatalf("primary session message %d: filter delta does not merge: %v", i, err)
		}
	}
	if records != 2 {
		t.Fatalf("primary session decoded %d records, want 2", records)
	}
}
