package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
)

// frameOfLen builds one update frame whose payload is n bytes.
func frameOfLen(n int) []byte {
	var buf bytes.Buffer
	w := &binConn{w: &buf}
	if err := w.flush(frameUpdate, append(w.begin(), make([]byte, n)...)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// A frame whose declared payload exceeds the byte budget fails with
// ErrMessageTooLarge and sets the trip flag before the payload buffer
// is allocated.
func TestFrameBudgetTripsOnOversize(t *testing.T) {
	bin := &binConn{r: bytes.NewReader(frameOfLen(128)), max: 64}
	if _, _, err := bin.readFrame(); !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("oversize frame error = %v, want ErrMessageTooLarge", err)
	}
	if !bin.tripped() {
		t.Error("oversize frame did not trip the budget")
	}
	if bin.rbuf != nil {
		t.Errorf("payload buffer of %d bytes allocated for a refused frame", cap(bin.rbuf))
	}

	// A frame exactly at the budget passes.
	bin = &binConn{r: bytes.NewReader(frameOfLen(64)), max: 64}
	if _, payload, err := bin.readFrame(); err != nil || len(payload) != 64 || bin.tripped() {
		t.Fatalf("frame at the budget: payload %d bytes, err %v, tripped %v", len(payload), err, bin.tripped())
	}
}

// A zero budget disables the guard.
func TestFrameBudgetZeroMaxDisablesGuard(t *testing.T) {
	bin := &binConn{r: bytes.NewReader(frameOfLen(1 << 20))}
	if _, payload, err := bin.readFrame(); err != nil || len(payload) != 1<<20 || bin.tripped() {
		t.Fatalf("unbounded frame: payload %d bytes, err %v, tripped %v", len(payload), err, bin.tripped())
	}
}

// countingConn counts the writes issued on a connection.
type countingConn struct {
	net.Conn
	n int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n++
	return c.Conn.Write(p)
}

// An initiator's preamble and first frame leave in one write, and every
// later message is one write too, so fault schedules that count I/O
// operations count messages.
func TestEveryMessageIsOneWrite(t *testing.T) {
	rec := &recordConn{}
	writes := &countingConn{Conn: rec}
	cc := NewClientConn(writes)
	msgs := []ClientMsg{
		{Hello: &Hello{ClientID: 1, NumSamples: 5, Codec: CodecBinary}},
		{Update: &UpdateMsg{BaseVersion: 0, Delta: []float64{1, 2}}},
		{Heartbeat: true},
	}
	for i := range msgs {
		if err := cc.Send(&msgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if writes.n != len(msgs) {
		t.Errorf("%d messages took %d writes, want one each", len(msgs), writes.n)
	}
	if got := rec.sent(); !bytes.HasPrefix([]byte(got), preamble[:]) {
		t.Errorf("stream opens with % x, want the preamble", got[:len(preamble)])
	}
}
