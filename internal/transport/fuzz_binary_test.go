package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// This file fuzzes the raw frame decoders below the preamble:
// adversarial bytes against every direction's decoder must yield typed
// errors — ErrBadFrame, ErrMessageTooLarge, or a short-read io error —
// never a panic, never unbounded allocation (the byte budget is checked
// before the payload buffer exists, and hostile update counts and slab
// dimensions are bounded by the bytes actually on the wire).

// binSeed records the frames an encode function emits, giving the fuzzer
// structurally valid binary streams to mutate.
func binSeed(t testing.TB, encode func(*binConn) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&binConn{w: &buf}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binFuzzBudget caps one fuzzed frame payload, like MaxMessageBytes on a
// live connection.
const binFuzzBudget = 1 << 16

// binReader builds read-only framing state over a byte stream (the fuzz
// decoders never write).
func binReader(r io.Reader, max int64) *binConn {
	return &binConn{r: r, max: max}
}

// binFuzzTypedError reports whether err is one the transport maps to a
// drop: a structural frame error, the oversize trip, or a short read.
func binFuzzTypedError(err error) bool {
	return errors.Is(err, ErrBadFrame) ||
		errors.Is(err, ErrBadPreamble) ||
		errors.Is(err, ErrMessageTooLarge) ||
		errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// binFuzzSeeds is one valid stream per raw frame kind plus gob-in-frame
// control messages, across all six directions.
func binFuzzSeeds(f testing.TB) [][]byte {
	f.Helper()
	slab := []float64{1.5, -2.25, 0, 3e300}
	return [][]byte{
		binSeed(f, func(c *binConn) error {
			if err := c.writeClientMsg(&ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 10, ModelDim: 4, Codec: CodecBinary}}); err != nil {
				return err
			}
			if err := c.writeClientMsg(&ClientMsg{Update: &UpdateMsg{BaseVersion: 2, Delta: slab}}); err != nil {
				return err
			}
			return c.writeClientMsg(&ClientMsg{Heartbeat: true})
		}),
		binSeed(f, func(c *binConn) error {
			if err := c.writeServerMsg(&ServerMsg{Task: &Task{Version: 3, Params: slab}, Nack: NackOverloaded, RetryAfter: 50}); err != nil {
				return err
			}
			return c.writeServerMsg(&ServerMsg{Pong: true})
		}),
		binSeed(f, func(c *binConn) error {
			if err := c.writeEdgeMsg(&EdgeMsg{Epoch: 7, Batch: &BatchMsg{
				BatchID:     9,
				EdgeVersion: 4,
				FilterState: []byte{1, 2, 3},
				Updates: []*fl.Update{
					{ClientID: 1, BaseVersion: 2, Staleness: 1, NumSamples: 5, Delta: slab},
					{ClientID: 2, NumSamples: 1},
				},
			}}); err != nil {
				return err
			}
			return c.writeEdgeMsg(&EdgeMsg{Heartbeat: true, Epoch: 7})
		}),
		binSeed(f, func(c *binConn) error {
			if err := c.writeRootMsg(&RootMsg{Ack: 9, Epoch: 7, Task: &Task{Version: 5, Params: slab}, Pong: true}); err != nil {
				return err
			}
			return c.writeRootMsg(&RootMsg{Nack: NackFenced, Epoch: 8})
		}),
		binSeed(f, func(c *binConn) error {
			if err := c.writeReplicaMsg(&ReplicaMsg{Hello: &ReplHello{NodeID: 1, NextSeq: 4}}); err != nil {
				return err
			}
			return c.writeReplicaMsg(&ReplicaMsg{AckSeq: 12, Epoch: 3})
		}),
		binSeed(f, func(c *binConn) error {
			if err := c.writePrimaryMsg(&PrimaryMsg{Epoch: 3, LatestSeq: 12, Record: &ReplRecord{
				Seq: 12, Epoch: 3, EdgeID: 1, BatchID: 9, EdgeAddr: "127.0.0.1:9100",
				ShardVersion: 2, Delta: slab, Accepted: 2, FilterState: []byte{4, 5}, FilterFull: true,
			}}); err != nil {
				return err
			}
			return c.writePrimaryMsg(&PrimaryMsg{Heartbeat: true, Epoch: 3, LatestSeq: 12})
		}),
	}
}

// FuzzDecodeBinaryEnvelope drives every direction's binary decoder with
// adversarial bytes. Each direction gets its own cursor over the input
// (a frame valid in one direction is an ErrBadFrame in another — that
// asymmetry is part of the contract under test).
func FuzzDecodeBinaryEnvelope(f *testing.F) {
	seeds := binFuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	full := seeds[0]
	f.Add(full[:len(full)/2])                             // truncated mid-frame
	f.Add([]byte{})                                       // empty stream
	f.Add([]byte{frameUpdate, 0xff, 0xff, 0xff, 0xff})    // hostile 4 GiB length prefix
	f.Add([]byte{0x7f, 0, 0, 0, 0})                       // unknown kind, empty payload
	f.Add([]byte{frameHeartbeat, 3, 0, 0, 0, 1, 2, 3})    // trailing bytes on an empty-payload kind
	f.Add([]byte{frameEdgeBatch, 4, 0, 0, 0, 9, 9, 9, 9}) // short batch payload

	srv := &Server{arena: fl.NewArena(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error, tripped bool) {
			t.Helper()
			if err == nil {
				return
			}
			if !binFuzzTypedError(err) {
				t.Fatalf("%s: untyped error %v", what, err)
			}
			if errors.Is(err, ErrMessageTooLarge) && !tripped {
				t.Fatalf("%s: oversize error without the trip flag", what)
			}
		}
		// A connection decodes many frames through one binConn; bound
		// the loop so a stream of tiny valid frames still terminates.
		decodeAll := func(what string, next func(*binConn) error) {
			bin := binReader(bytes.NewReader(data), binFuzzBudget)
			for i := 0; i < 16; i++ {
				if err := next(bin); err != nil {
					check(what, err, bin.tripped())
					return
				}
			}
		}
		decodeAll("client->server", func(bin *binConn) error {
			wire := &serverWire{bin: bin, srv: srv}
			frame, err := wire.readMsg()
			if err == nil && frame.hasUpdate {
				srv.arena.PutVec(frame.delta)
			}
			return err
		})
		var scratch []float64
		decodeAll("server->client", func(bin *binConn) error {
			var msg ServerMsg
			var err error
			scratch, err = bin.readServerMsg(&msg, scratch)
			return err
		})
		decodeAll("edge->root", func(bin *binConn) error {
			_, err := bin.readEdgeMsg()
			return err
		})
		decodeAll("root->edge", func(bin *binConn) error {
			_, err := bin.readRootMsg()
			return err
		})
		decodeAll("standby->primary", func(bin *binConn) error {
			_, err := bin.readReplicaMsg()
			return err
		})
		decodeAll("primary->standby", func(bin *binConn) error {
			_, err := bin.readPrimaryMsg()
			return err
		})
	})
}

// The binary seed corpus must decode cleanly in its own direction —
// guards against the seeds rotting if the frame format changes.
func TestBinaryFuzzSeedsDecode(t *testing.T) {
	seeds := binFuzzSeeds(t)
	readers := []func(*binConn) error{
		func(bin *binConn) error {
			wire := &serverWire{bin: bin, srv: &Server{arena: fl.NewArena(4)}}
			_, err := wire.readMsg()
			return err
		},
		func(bin *binConn) error {
			var msg ServerMsg
			_, err := bin.readServerMsg(&msg, nil)
			return err
		},
		func(bin *binConn) error { _, err := bin.readEdgeMsg(); return err },
		func(bin *binConn) error { _, err := bin.readRootMsg(); return err },
		func(bin *binConn) error { _, err := bin.readReplicaMsg(); return err },
		func(bin *binConn) error { _, err := bin.readPrimaryMsg(); return err },
	}
	for i, seed := range seeds {
		bin := binReader(bytes.NewReader(seed), binFuzzBudget)
		for {
			err := readers[i](bin)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
		}
	}
	// The hostile length prefix must trip the budget before allocating.
	bin := binReader(bytes.NewReader([]byte{frameUpdate, 0xff, 0xff, 0xff, 0xff}), binFuzzBudget)
	if _, _, err := bin.readFrame(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("hostile length prefix: got %v, want ErrMessageTooLarge", err)
	}
	if !bin.tripped() {
		t.Fatal("hostile length prefix did not trip the budget")
	}
}
