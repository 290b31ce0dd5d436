package transport

// clientFrame is one decoded client->server message. The delta slice is
// owned by the receiving handler (the wire never reuses it): either a
// fresh allocation or arena memory handed over through receiveUpdate's
// ownership-transfer contract.
type clientFrame struct {
	hello     *Hello
	heartbeat bool
	// hasUpdate distinguishes "update present" from an empty envelope;
	// baseVersion and delta are only meaningful when it is set.
	hasUpdate   bool
	baseVersion int
	delta       []float64
}

// frameOf flattens a gob-in-frame client envelope.
func frameOf(msg *ClientMsg) clientFrame {
	frame := clientFrame{hello: msg.Hello, heartbeat: msg.Heartbeat}
	if msg.Update != nil {
		frame.hasUpdate = true
		frame.baseVersion = msg.Update.BaseVersion
		frame.delta = msg.Update.Delta
	}
	return frame
}

// serverWire is the server side of one client connection. Read
// deadlines are armed by the caller (the handler owns the net.Conn); the
// wire owns the preamble check, framing, decoding and the oversize
// budget. Update deltas are decoded into arena vectors (when the
// dimension matches the deployment) and ownership transfers through
// receiveUpdate into the buffer.
type serverWire struct {
	bin *binConn
	srv *Server
}

// readMsg blocks for the next client message; the first call checks the
// connection preamble. The returned frame's delta is owned by the
// caller.
func (w *serverWire) readMsg() (clientFrame, error) {
	kind, payload, err := w.bin.readFrame()
	if err != nil {
		return clientFrame{}, err
	}
	switch kind {
	case frameGob:
		var msg ClientMsg
		if err := gobFromFrame(payload, &msg); err != nil {
			return clientFrame{}, err
		}
		return frameOf(&msg), nil
	case frameHeartbeat:
		if len(payload) != 0 {
			return clientFrame{}, badFrame(kind, "trailing bytes")
		}
		return clientFrame{heartbeat: true}, nil
	case frameUpdate:
		cur := binCursor{b: payload}
		base := cur.i64()
		dim := cur.restDim()
		if cur.bad {
			return clientFrame{}, badFrame(kind, "short or misaligned payload")
		}
		delta := w.srv.getDeltaVec(dim)
		cur.f64sInto(delta)
		if err := cur.done(kind); err != nil {
			w.srv.arena.PutVec(delta)
			return clientFrame{}, err
		}
		return clientFrame{hasUpdate: true, baseVersion: base, delta: delta}, nil
	default:
		return clientFrame{}, badFrame(kind, "unknown kind in client->server direction")
	}
}

// writeMsg transmits one reply.
func (w *serverWire) writeMsg(msg *ServerMsg) error { return w.bin.writeServerMsg(msg) }

// oversize reports whether a read failed because the peer exceeded the
// byte budget (the connection is condemned).
func (w *serverWire) oversize() bool { return w.bin.tripped() }

// getDeltaVec returns an update-delta buffer of length n: recycled arena
// memory when n matches the deployment's model dimension, a cold fresh
// slice otherwise (the dimension-mismatch path rejects it right after).
//
//afl:pooled
func (s *Server) getDeltaVec(n int) []float64 {
	if n == s.arena.Dim() {
		return s.arena.GetVec()
	}
	return make([]float64, n)
}
