package transport

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// byteConn is a net.Conn over an in-memory byte stream: reads drain the
// stream, writes are recorded. It lets the fuzzers and their seed
// recorders drive the production connection types (ClientConn,
// UpstreamConn, serverWire) without sockets.
type byteConn struct {
	nopConn
	in  bytes.Reader
	out bytes.Buffer
}

func newByteConn(data []byte) *byteConn {
	c := &byteConn{}
	c.in.Reset(data)
	return c
}

func (c *byteConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *byteConn) Write(p []byte) (int, error) { return c.out.Write(p) }

// recordedClientSession sends a sequence of client messages through a
// production ClientConn and returns the bytes it put on the wire,
// preamble included, giving the fuzzer structurally valid starting
// points to mutate.
func recordedClientSession(t testing.TB, msgs ...ClientMsg) []byte {
	t.Helper()
	conn := newByteConn(nil)
	cc := NewClientConn(conn)
	for i := range msgs {
		if err := cc.Send(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return conn.out.Bytes()
}

// gobOpening gob-encodes v the way a peer of the retired gob stream
// opened its connection: no preamble, type descriptors first.
func gobOpening(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyClientHello is a gob-stream client's Hello.
var legacyClientHello = &ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 10, ModelDim: 8}}

// FuzzDecodeClientMsg drives the server's wire-decode path — the
// preamble check and frame decoder behind the byte budget, exactly as
// handle() builds them — with adversarial bytes. The contract under
// fuzzing: every input yields either decoded messages or a typed error;
// never a panic, and never unbounded memory (the budget trips before
// allocation). Malformed streams map to DroppedMalformed at the call
// sites; here we only assert the decode layer's memory- and
// panic-safety.
func FuzzDecodeClientMsg(f *testing.F) {
	f.Add(recordedClientSession(f, ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 10, ModelDim: 8, Codec: CodecBinary}}))
	f.Add(recordedClientSession(f,
		ClientMsg{Hello: &Hello{ClientID: 3, NumSamples: 40, ModelDim: 4, Codec: CodecBinary}},
		ClientMsg{Update: &UpdateMsg{BaseVersion: 2, Delta: []float64{0.25, -1, 3.5, 0}}},
		ClientMsg{Heartbeat: true},
	))
	full := recordedClientSession(f, ClientMsg{Update: &UpdateMsg{BaseVersion: 1, Delta: []float64{1, 2, 3}}})
	f.Add(full[:len(full)/2])               // truncated mid-frame
	f.Add(full[len(preamble):])             // missing preamble
	f.Add(gobOpening(f, legacyClientHello)) // a retired gob client's opening
	f.Add([]byte{})                         // empty stream
	f.Add(bytes.Repeat([]byte{7}, 64))      // repetitive garbage

	srv := &Server{arena: fl.NewArena(4)}
	f.Fuzz(func(t *testing.T, data []byte) {
		wire := &serverWire{bin: newAcceptor(newByteConn(data), binFuzzBudget), srv: srv}
		// A connection decodes many frames through one wire; bound the
		// loop so a stream of tiny valid frames still terminates.
		for i := 0; i < 16; i++ {
			msg, err := wire.readMsg()
			if err != nil {
				if !binFuzzTypedError(err) {
					t.Fatalf("untyped error %v", err)
				}
				return // typed error: the server drops the connection here
			}
			// Mirror the nil-checks the handler performs on a decoded
			// message so a fuzzed payload can't find a nil-deref there.
			switch {
			case msg.hello != nil:
				_ = msg.hello.ClientID + msg.hello.NumSamples + msg.hello.ModelDim
			case msg.hasUpdate:
				_ = msg.baseVersion
				srv.arena.PutVec(msg.delta)
			}
		}
	})
}

// The seed corpus itself must decode cleanly end to end — guards against
// the seeds rotting if the wire format changes.
func TestFuzzSeedsDecode(t *testing.T) {
	data := recordedClientSession(t,
		ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 10, ModelDim: 8, Codec: CodecBinary}},
		ClientMsg{Update: &UpdateMsg{BaseVersion: 0, Delta: []float64{1, 2}}},
		ClientMsg{Heartbeat: true},
	)
	wire := &serverWire{bin: newAcceptor(newByteConn(data), binFuzzBudget), srv: &Server{arena: fl.NewArena(4)}}
	for i := 0; i < 3; i++ {
		if _, err := wire.readMsg(); err != nil {
			t.Fatalf("seed message %d: %v", i, err)
		}
	}
}
