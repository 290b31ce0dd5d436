package transport

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/asyncfl/asyncfilter/internal/fl"
)

// wrongVersion swaps a recorded session's preamble for one carrying an
// unsupported codec version byte.
func wrongVersion(session []byte) []byte {
	bad := preamble
	bad[len(bad)-1]++
	return append(bad[:], session[len(preamble):]...)
}

// A client connection that opens without the preamble, or with a wrong
// version byte, is closed with ErrBadPreamble before any frame is
// decoded; a well-framed Hello declaring any codec but CodecBinary is
// refused with NackMalformed. Either way the server counts a malformed
// drop, registers no session and does not panic.
func TestServerRefusesBadOpening(t *testing.T) {
	hello := func(codec Codec) []byte {
		return recordedClientSession(t, ClientMsg{Hello: &Hello{ClientID: 1, NumSamples: 5, Codec: codec}})
	}
	cases := []struct {
		name    string
		opening []byte
		nack    bool
	}{
		{"gob-client", gobOpening(t, legacyClientHello), false},
		{"wrong-version", wrongVersion(hello(CodecBinary)), false},
		{"codec-unset", hello(0), true},
		{"codec-unknown", hello(CodecBinary + 1), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !tc.nack {
				wire := &serverWire{bin: newAcceptor(newByteConn(tc.opening), 0), srv: &Server{arena: fl.NewArena(2)}}
				if _, err := wire.readMsg(); !errors.Is(err, ErrBadPreamble) {
					t.Fatalf("decode error = %v, want ErrBadPreamble", err)
				}
			}

			server, addr, serveErr := startBareServer(t, ServerConfig{
				InitialParams:   []float64{0, 0},
				AggregationGoal: 1,
				Rounds:          1,
				ReadTimeout:     5 * time.Second,
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.opening); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			cc := NewClientConn(conn)
			var msg ServerMsg
			if tc.nack {
				if err := cc.Recv(&msg); err != nil {
					t.Fatalf("no refusal before close: %v", err)
				}
				if msg.Nack != NackMalformed || msg.Task != nil {
					t.Fatalf("hello answered with %+v, want bare NackMalformed", msg)
				}
			}
			err = cc.Recv(&msg)
			if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection not closed by the server: err = %v, msg = %+v", err, msg)
			}

			st := server.Stats()
			if st.DroppedMalformed != 1 {
				t.Errorf("DroppedMalformed = %d, want 1", st.DroppedMalformed)
			}
			if st.HandlerPanics != 0 || st.ClientsConnected != 0 {
				t.Errorf("HandlerPanics = %d, ClientsConnected = %d, want 0 and 0", st.HandlerPanics, st.ClientsConnected)
			}
			if err := server.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("serve: %v", err)
			}
		})
	}
}

// The upstream and replication acceptors (root, primary, voter) refuse
// a connection without the preamble, or with a wrong version byte, with
// ErrBadPreamble on their first read.
func TestUpstreamAcceptorRefusesBadOpening(t *testing.T) {
	edgeHello := EdgeMsg{Hello: &EdgeHello{EdgeID: 1, ModelDim: 3, ClientAddr: "127.0.0.1:9101", NextBatch: 1}}
	replHello := ReplicaMsg{Hello: &ReplHello{NodeID: 1, NextSeq: 1}}
	vote := ReplicaMsg{Vote: &VoteRequest{CandidateID: 1, Epoch: 3}}
	read := map[string]func(*UpstreamConn) error{
		"edge":    func(u *UpstreamConn) error { _, err := u.ReadEdge(); return err },
		"replica": func(u *UpstreamConn) error { _, err := u.ReadReplica(); return err },
	}
	cases := []struct {
		name, side string
		opening    []byte
	}{
		{"gob-edge", "edge", gobOpening(t, &edgeHello)},
		{"wrong-version-edge", "edge", wrongVersion(recordedEdgeSession(t))},
		{"gob-standby", "replica", gobOpening(t, &replHello)},
		{"gob-candidate", "replica", gobOpening(t, &vote)},
		{"wrong-version-standby", "replica", wrongVersion(recordedReplicaSession(t))},
	}
	for _, tc := range cases {
		uc := AcceptUpstreamConn(newByteConn(tc.opening), 1<<16, 0, 0)
		if err := read[tc.side](uc); !errors.Is(err, ErrBadPreamble) {
			t.Errorf("%s: first read error = %v, want ErrBadPreamble", tc.name, err)
		}
	}
}
