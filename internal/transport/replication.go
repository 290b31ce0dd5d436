package transport

import "fmt"

// This file defines the primary<->standby replication protocol of the
// replicated root (internal/replica). Like the upstream protocol it lives
// in transport so the envelope shares the full wire hardening: the frame
// codec's byte budget, per-operation deadlines and the fuzz harness
// (fuzz_replica_test.go).
//
// The protocol is strict push-reply, mirroring the upstream protocol's
// single-writer-per-side structure but with the roles swapped: the
// standby opens the connection and sends one ReplicaMsg Hello, then the
// PRIMARY drives — it pushes one PrimaryMsg at a time (a full snapshot,
// an incremental log record, or an idle heartbeat) and the standby
// answers each push with exactly one ReplicaMsg acknowledgement.
//
//	standby -> primary: Hello, then one ack per push
//	primary -> standby: (Snapshot | Record | Heartbeat)*
//
// Replication is log-shipping over the root's committed batches: every
// batch the primary applies becomes one ReplRecord with a sequence number
// equal to the resulting global model version, so the record stream IS
// the version history and a standby at seq S needs exactly the records
// S+1, S+2, ... to catch up. A standby that attaches too far behind the
// primary's in-memory record ring receives a full checkpoint snapshot
// (the internal/checkpoint container, CRC-guarded) and resumes the log
// from the snapshot's version.
//
// Every message in both directions carries the sender's fencing epoch.
// An epoch is bumped exactly once per promotion and never reused, so
// whichever side observes a higher epoch than its own knows it is stale:
// a stale primary answers with NackFenced and demotes itself, a stale
// standby adopts the higher epoch. See internal/replica for the fencing
// invariant.
//
// The same listener also carries the quorum election protocol, a strict
// request-reply exchange between replica-group peers: a candidate whose
// lease expired opens a connection and sends one ReplicaMsg carrying a
// VoteRequest instead of a Hello; the voter answers with exactly one
// PrimaryMsg carrying a VoteGrant and the connection closes. A voter
// persists its grant (raise-only per epoch, internal/checkpoint format)
// BEFORE the grant leaves the wire, so a voter that crashes and restarts
// can never hand the same epoch to a second candidate.

// ReplHello introduces a standby to the primary it wants to stream from.
type ReplHello struct {
	// NodeID identifies the standby (unique per replication group, >= 0).
	NodeID int
	// Epoch is the highest fencing epoch the standby has observed.
	Epoch uint64
	// NextSeq is the first log sequence number the standby is missing
	// (its applied version + 1). The primary resumes the stream there
	// when its record ring still covers it, and sends a full snapshot
	// otherwise.
	NextSeq uint64
	// FullSync demands a snapshot regardless of NextSeq — a standby
	// whose incremental apply failed mid-record (model ahead of filter)
	// must be re-grounded rather than streamed to.
	FullSync bool
}

// ReplRecord is one incremental replication log record: everything a
// standby must apply to mirror one committed batch on the primary.
type ReplRecord struct {
	// Seq is the log sequence number — the primary's global model version
	// after applying the batch. Records are applied strictly in order.
	Seq uint64
	// Epoch is the primary's fencing epoch when the batch committed.
	Epoch uint64
	// EdgeID and BatchID advance the per-edge idempotency watermark on
	// the standby, so a promoted standby answers replayed batches with a
	// bare ack exactly as the dead primary would have.
	EdgeID  int
	BatchID uint64
	// EdgeAddr is the edge's client-facing address (shard-map entry).
	EdgeAddr string
	// ShardVersion is the primary's shard-map version at commit time.
	ShardVersion int
	// Delta is the combined model delta the batch contributed (nil when
	// every update was rejected or deferred).
	Delta []float64
	// Accepted, Deferred and Rejected are the filter verdict counts of
	// the batch, mirrored into the standby's stats.
	Accepted, Deferred, Rejected int
	// FilterState, when non-nil, carries the primary's root-filter
	// detection state: an incremental CMA delta since the previous record
	// (mergeable via internal/core/merge) unless FilterFull is set, in
	// which case it is a complete snapshot to restore. Both are the
	// fl.StateSnapshotter gob payload.
	FilterState []byte
	// FilterFull marks FilterState as a complete snapshot rather than a
	// mergeable delta (the first record of a stream, or a batch whose
	// state change had no exact delta).
	FilterFull bool
}

// VoteRequest asks a replica-group peer for its vote in a quorum
// election. A candidate may only enter RolePromoting after a majority of
// the configured group has granted it the same epoch.
type VoteRequest struct {
	// CandidateID is the requesting node's id (unique per group, >= 0).
	CandidateID int
	// Epoch is the fencing epoch the candidate wants to promote under —
	// strictly above every epoch it has observed or voted in.
	Epoch uint64
	// LastSeq is the candidate's applied log position. Voters refuse
	// candidates behind their own position, so the most-caught-up standby
	// wins ties and RecordsLostOnPromote shrinks.
	LastSeq uint64
}

// Validate checks a received vote request before the voter consults its
// ledger.
func (v *VoteRequest) Validate() error {
	if v == nil {
		return fmt.Errorf("transport: VoteRequest: nil")
	}
	if v.CandidateID < 0 {
		return fmt.Errorf("transport: VoteRequest: CandidateID = %d, need >= 0", v.CandidateID)
	}
	if v.Epoch == 0 {
		return fmt.Errorf("transport: VoteRequest: Epoch = 0, need >= 1")
	}
	return nil
}

// VoteGrant is the voter's reply to a VoteRequest. Granted is only set
// after the voter has durably recorded the (epoch, candidate) pair, so
// each voter hands out at most one grant per epoch across restarts.
type VoteGrant struct {
	// VoterID identifies the voter; candidates count grants by distinct
	// voter, never by connection.
	VoterID int
	// Granted reports whether the voter's ledger accepted the request.
	Granted bool
	// Epoch echoes the requested epoch when granted; on refusal it is the
	// highest epoch the voter has granted or observed, letting a stale
	// candidate pick a higher target for its next attempt.
	Epoch uint64
	// LastSeq is the voter's own applied log position (diagnostics: a
	// refused candidate can see how far behind it was).
	LastSeq uint64
}

// PrimaryMsg is the primary->standby envelope: one per exchange, pushed
// by the primary.
type PrimaryMsg struct {
	// Snapshot, when non-nil, is the primary's full durable state in the
	// internal/checkpoint container format (the same bytes a root
	// checkpoint file holds). The standby replaces its state with it.
	Snapshot []byte
	// Record, when non-nil, is the next incremental log record.
	Record *ReplRecord
	// Heartbeat keeps the standby's promotion lease renewed while no
	// batches are flowing.
	Heartbeat bool
	// Epoch is the primary's current fencing epoch.
	Epoch uint64
	// LatestSeq is the primary's newest log sequence number, letting the
	// standby compute its replication lag on every exchange.
	LatestSeq uint64
	// Nack, when non-zero, refuses the standby (NackFenced: the standby's
	// epoch proves this primary is stale and it is demoting itself;
	// NackMalformed: a broken Hello).
	Nack NackCode
	// Goodbye signals the primary is shutting down cleanly.
	Goodbye bool
	// Grant, when non-nil, answers a ReplicaMsg VoteRequest; it is the
	// only message of a vote exchange's reply direction.
	Grant *VoteGrant
}

// ReplicaMsg is the standby->primary envelope: the initial Hello, then
// one acknowledgement per primary push.
type ReplicaMsg struct {
	Hello *ReplHello
	// AckSeq is the highest log sequence number the standby has durably
	// applied. The primary uses it for lag accounting and ring trimming.
	AckSeq uint64
	// Epoch is the highest fencing epoch the standby has observed. A
	// primary that sees an epoch above its own has been superseded and
	// demotes itself.
	Epoch uint64
	// Vote, when non-nil, makes this connection a one-shot vote exchange
	// instead of a replication session: the peer answers with a single
	// PrimaryMsg Grant and both sides hang up.
	Vote *VoteRequest
}

// Validate checks a received hello before the primary registers the
// standby.
func (h *ReplHello) Validate() error {
	if h == nil {
		return fmt.Errorf("transport: ReplHello: nil")
	}
	if h.NodeID < 0 {
		return fmt.Errorf("transport: ReplHello: NodeID = %d, need >= 0", h.NodeID)
	}
	if h.NextSeq == 0 {
		return fmt.Errorf("transport: ReplHello: NextSeq = 0, need >= 1")
	}
	return nil
}

// ReadReplica decodes the next standby->primary envelope (primary side).
//
//afl:hotpath
func (u *UpstreamConn) ReadReplica() (*ReplicaMsg, error) {
	u.armRead()
	return u.bin.readReplicaMsg()
}

// WritePrimary encodes one primary->standby push (primary side).
//
//afl:hotpath
func (u *UpstreamConn) WritePrimary(msg *PrimaryMsg) error {
	u.armWrite()
	return u.bin.writePrimaryMsg(msg)
}

// ReadPrimary decodes the next primary->standby envelope (standby side).
//
//afl:hotpath
func (u *UpstreamConn) ReadPrimary() (*PrimaryMsg, error) {
	u.armRead()
	//lint:ignore hotalloc the binary decode materializes one log record's delta per push; the standby applies it to its shadow state and drops the slice
	return u.bin.readPrimaryMsg()
}

// WriteReplica encodes one standby->primary message (standby side).
//
//afl:hotpath
func (u *UpstreamConn) WriteReplica(msg *ReplicaMsg) error {
	u.armWrite()
	return u.bin.writeReplicaMsg(msg)
}
