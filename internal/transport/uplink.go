package transport

import (
	"net"
	"time"
)

// UpstreamConn wraps one side of an established edge<->root (or
// primary<->standby, internal/replica) connection with the same wire
// hardening the client protocol gets: the frame codec behind the
// byte-budget guard, and a read/write deadline armed before every
// blocking I/O operation. Both sides of the upstream protocol
// (internal/topology) speak through it — the edge with
// WriteEdge/ReadRoot, the root with ReadEdge/WriteRoot — so the decode
// path the fuzz harness drives (fuzz_upstream_test.go) is exactly the
// production one.
//
// The initiating side (the edge, the attaching standby, the vote
// candidate) is built with NewUpstreamConn and sends the connection
// preamble with its first frame; the accepting side (the root, the
// primary, the voter) is built with AcceptUpstreamConn and checks the
// preamble on its first read.
//
// An UpstreamConn is owned by a single goroutine per side; the strict
// request-reply shape of the protocol (one RootMsg per EdgeMsg) makes
// that the natural structure and keeps the codec free of locking.
type UpstreamConn struct {
	conn         net.Conn
	bin          *binConn
	readTimeout  time.Duration
	writeTimeout time.Duration
}

// NewUpstreamConn dresses the initiating side of a connection.
// maxMessageBytes caps a single frame payload (0 disables the guard);
// readTimeout and writeTimeout bound each blocking read and write (0
// disables).
func NewUpstreamConn(conn net.Conn, maxMessageBytes int64, readTimeout, writeTimeout time.Duration) *UpstreamConn {
	return &UpstreamConn{
		conn:         conn,
		bin:          newInitiator(conn, maxMessageBytes),
		readTimeout:  readTimeout,
		writeTimeout: writeTimeout,
	}
}

// AcceptUpstreamConn dresses the accepting side of a connection. Its
// first read checks the connection preamble (under that read's
// deadline) and fails with ErrBadPreamble on anything else.
func AcceptUpstreamConn(conn net.Conn, maxMessageBytes int64, readTimeout, writeTimeout time.Duration) *UpstreamConn {
	return &UpstreamConn{
		conn:         conn,
		bin:          newAcceptor(conn, maxMessageBytes),
		readTimeout:  readTimeout,
		writeTimeout: writeTimeout,
	}
}

// armRead refreshes the read deadline before a blocking decode.
func (u *UpstreamConn) armRead() {
	if u.readTimeout > 0 {
		_ = u.conn.SetReadDeadline(time.Now().Add(u.readTimeout))
	}
}

// armWrite refreshes the write deadline before a blocking encode.
func (u *UpstreamConn) armWrite() {
	if u.writeTimeout > 0 {
		_ = u.conn.SetWriteDeadline(time.Now().Add(u.writeTimeout))
	}
}

// ReadEdge decodes the next edge->root envelope (root side).
//
//afl:hotpath
func (u *UpstreamConn) ReadEdge() (*EdgeMsg, error) {
	u.armRead()
	//lint:ignore hotalloc the binary decode materializes each batched update exactly once per message (bounded by the frame's sanity caps); the root's round pipeline owns and retires them
	return u.bin.readEdgeMsg()
}

// WriteRoot encodes one root->edge reply (root side).
//
//afl:hotpath
func (u *UpstreamConn) WriteRoot(msg *RootMsg) error {
	u.armWrite()
	return u.bin.writeRootMsg(msg)
}

// ReadRoot decodes the next root->edge envelope (edge side).
//
//afl:hotpath
func (u *UpstreamConn) ReadRoot() (*RootMsg, error) {
	u.armRead()
	//lint:ignore hotalloc the binary decode materializes the task parameters once per reply; the edge copies them into its model and drops the slice
	return u.bin.readRootMsg()
}

// WriteEdge encodes one edge->root request (edge side).
//
//afl:hotpath
func (u *UpstreamConn) WriteEdge(msg *EdgeMsg) error {
	u.armWrite()
	return u.bin.writeEdgeMsg(msg)
}

// Oversize reports whether the last failed read was killed by the
// byte-budget guard rather than an ordinary stream error.
func (u *UpstreamConn) Oversize() bool { return u.bin.tripped() }

// Close closes the underlying connection.
func (u *UpstreamConn) Close() error { return u.conn.Close() }
