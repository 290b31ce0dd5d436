package topology

import (
	"errors"
	"fmt"
	"log"
	"net"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/transport"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// This file is the root's replication surface — what internal/replica
// drives to turn a Root into one node of a primary/standby group:
//
//   - On the primary, SetOnCommit taps every applied batch as a
//     transport.ReplRecord and SnapshotBlob captures the full durable
//     state for a standby attaching too far behind the log.
//   - On a standby, InstallSnapshot and ApplyRecord mirror the primary's
//     commits into a root that is not serving edges yet.
//   - Fencing: every edge request carries an epoch (EdgeMsg.Epoch); a
//     root that sees an epoch above its own answers NackFenced and
//     Fence()s itself — a resurrected old primary demotes instead of
//     split-braining the filter state. PromoteEpoch is the standby's
//     promotion step: bump the epoch and persist it before serving.
//
// The fencing invariant: an epoch is bumped exactly once per promotion,
// persisted in the promoting root's checkpoint before it accepts its
// first edge, and adopted by edges from every reply. Two roots can
// therefore never both believe they own the same epoch, and the one with
// the lower epoch refuses (and tears itself down) the moment any edge
// that has seen the higher epoch talks to it.

// SetPeers publishes the static root peer list (the edge-facing address
// of every replica, promoted or not). Edges receive it piggybacked on
// replies — the same mechanism as shard-map pushes — and rotate through
// it to find the promoted standby when their current root dies.
func (r *Root) SetPeers(addrs []string) {
	clone := append([]string(nil), addrs...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers = clone
	r.peersVersion++
}

// Epoch returns the fencing epoch this root serves under.
func (r *Root) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// PromoteEpoch raises the root's fencing epoch — a standby's promotion
// step. The new epoch is persisted in the checkpoint (when configured)
// BEFORE the method returns, so a promoted root that crashes cannot come
// back believing in its pre-promotion epoch. Epochs only move forward.
func (r *Root) PromoteEpoch(epoch uint64) error {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	r.mu.Lock()
	if epoch <= r.epoch {
		cur := r.epoch
		r.mu.Unlock()
		return fmt.Errorf("topology: PromoteEpoch: epoch %d not above current %d", epoch, cur)
	}
	r.epoch = epoch
	r.mu.Unlock()
	if r.cfg.CheckpointPath != "" {
		r.writeCheckpoint()
	}
	return nil
}

// ObserveEpoch raises the root's fencing epoch to a value a live peer
// proved exists (a standby hearing its primary's pushes). Epochs only
// move forward; lower values are ignored. Unlike PromoteEpoch this does
// not persist — the next checkpoint or snapshot install carries it.
func (r *Root) ObserveEpoch(epoch uint64) {
	r.mu.Lock()
	r.observeEpochLocked(epoch)
	r.mu.Unlock()
}

// observeEpochLocked is the single raise-only write path for observed
// epochs (records, checkpoints, peer pushes); r.mu must be held. Keeping
// every adoption behind this guard is what makes the fence monotone: no
// caller can regress the epoch by writing the field directly.
func (r *Root) observeEpochLocked(epoch uint64) {
	if epoch > r.epoch {
		r.epoch = epoch
	}
}

// SetOnCommit installs the per-applied-batch replication tap. It must be
// set before Serve; fn is called while the round slot is held, so records
// arrive in strict version order and fn must not block on the root.
func (r *Root) SetOnCommit(fn func(*transport.ReplRecord)) {
	r.onCommit = fn
}

// Fenced reports whether this root has demoted itself after seeing a
// newer epoch.
func (r *Root) Fenced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenced
}

// Fence demotes the root: it stops accepting work, tears down the
// listener and every edge connection, and fires Done. Idempotent. Called
// when any peer — edge or standby — proves a newer primary exists. The
// checkpoint is deliberately NOT rewritten: the fenced root's state is
// stale by definition and must not clobber a newer on-disk snapshot
// written by the same path.
func (r *Root) Fence() {
	r.mu.Lock()
	if r.fenced {
		r.mu.Unlock()
		return
	}
	r.fenced = true
	r.closed = true
	lis := r.listener
	open := make([]net.Conn, 0, len(r.conns))
	for conn := range r.conns {
		open = append(open, conn)
	}
	r.closeDone()
	r.mu.Unlock()

	log.Printf("topology: root fenced: a newer primary epoch exists, demoting")
	if lis != nil {
		_ = lis.Close()
	}
	for _, conn := range open {
		_ = conn.Close()
	}
}

// fenceCheck inspects a request's fencing epoch. A nil return admits the
// request; a non-nil return is the NackFenced reply to send before the
// caller Fence()s the root. (The reply carries the stale root's own
// epoch for diagnostics.)
func (r *Root) fenceCheck(epoch uint64) *transport.RootMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return nil
	}
	r.stats.FencedNacks++
	r.stats.NacksSent++
	return &transport.RootMsg{Nack: transport.NackFenced, Epoch: r.epoch}
}

// SnapshotBlob captures the root's full durable state as an
// internal/checkpoint container — the exact bytes a checkpoint file
// would hold — and the version it represents. The replication stream
// sends it to a standby attaching too far behind the log.
func (r *Root) SnapshotBlob() ([]byte, uint64, error) {
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	ck := r.captureCkpt()
	raw, err := checkpoint.Encode(&ck)
	if err != nil {
		return nil, 0, fmt.Errorf("topology: SnapshotBlob: %w", err)
	}
	return raw, uint64(ck.Version), nil
}

// InstallSnapshot replaces a standby root's state with a SnapshotBlob
// container received from the primary. All-or-nothing up to the filter
// restore (see adoptCkpt). Returns the snapshot's version.
func (r *Root) InstallSnapshot(raw []byte) (uint64, error) {
	var ck rootCkpt
	if err := checkpoint.Decode(raw, &ck, "replication snapshot"); err != nil {
		return 0, fmt.Errorf("topology: InstallSnapshot: %w", err)
	}
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()
	if err := r.adoptCkpt(&ck, "install replication snapshot"); err != nil {
		return 0, err
	}
	return uint64(ck.Version), nil
}

// ApplyRecord mirrors one primary commit into a standby root: the model
// delta, the version, the per-edge idempotency watermark, the shard-map
// version and the filter-state delta. Records must arrive in strict
// sequence order (Seq == version+1); anything else is refused so the
// caller resynchronizes from a snapshot instead of diverging silently.
func (r *Root) ApplyRecord(rec *transport.ReplRecord) error {
	if rec == nil {
		return errors.New("topology: ApplyRecord: nil record")
	}
	if rec.EdgeID < 0 {
		return fmt.Errorf("topology: ApplyRecord: EdgeID = %d, need >= 0", rec.EdgeID)
	}
	r.roundSlot <- struct{}{}
	defer func() { <-r.roundSlot }()

	r.mu.Lock()
	if rec.Seq != uint64(r.eng.Version)+1 {
		have := r.eng.Version
		r.mu.Unlock()
		return fmt.Errorf("topology: ApplyRecord: seq %d, root at version %d", rec.Seq, have)
	}
	if rec.Delta != nil && len(rec.Delta) != len(r.eng.Global) {
		r.mu.Unlock()
		return fmt.Errorf("topology: ApplyRecord: delta dim %d, model has %d", len(rec.Delta), len(r.eng.Global))
	}
	es, ok := r.edges[rec.EdgeID]
	if !ok {
		es = &edgeState{id: rec.EdgeID}
		r.edges[rec.EdgeID] = es
		r.stats.EdgesConnected++
	}
	if rec.BatchID > es.lastApplied {
		es.lastApplied = rec.BatchID
	}
	if rec.EdgeAddr != "" {
		es.clientAddr = rec.EdgeAddr
	}
	if rec.Delta != nil {
		vecmath.Add(r.eng.Global, r.eng.Global, rec.Delta)
	}
	r.eng.Version = int(rec.Seq)
	r.observeEpochLocked(rec.Epoch)
	if rec.ShardVersion > r.shard.Version {
		r.shard.Version = rec.ShardVersion
	}
	r.stats.Rounds = r.eng.Version
	r.stats.BatchesApplied++
	r.stats.Accepted += rec.Accepted
	r.stats.Deferred += rec.Deferred
	r.stats.Rejected += rec.Rejected
	finished := r.eng.Version >= r.cfg.Rounds && !r.finished
	if finished {
		r.finished = true
	}
	r.mu.Unlock()

	// Filter state applies outside every lock (merges are O(groups·dim));
	// the round slot keeps the filter quiescent. A failure here leaves
	// the standby's model ahead of its filter — the caller must force a
	// snapshot resync rather than stream on.
	var ferr error
	if len(rec.FilterState) > 0 {
		if rec.FilterFull {
			if sf, ok := r.filter.(fl.StateSnapshotter); ok {
				ferr = sf.RestoreState(rec.FilterState)
			} else {
				ferr = fmt.Errorf("topology: ApplyRecord: filter %q cannot restore state", r.filter.Name())
			}
		} else {
			if m, ok := r.filter.(fl.StateMerger); ok {
				ferr = m.MergeState(rec.FilterState)
			} else {
				ferr = fmt.Errorf("topology: ApplyRecord: filter %q cannot merge state", r.filter.Name())
			}
		}
	}
	if finished {
		r.closeDone()
	}
	if ferr != nil {
		return fmt.Errorf("topology: ApplyRecord: seq %d filter state: %w", rec.Seq, ferr)
	}
	return nil
}

// filterReplState returns the filter-state payload for the next
// replication record: an incremental delta against the previous record's
// snapshot when the filter supports exact diffs, a full snapshot
// otherwise (first record of a stream, diff impossible, or the filter
// only snapshots). The caller holds the round slot.
func (r *Root) filterReplState() ([]byte, bool) {
	sf, ok := r.filter.(fl.StateSnapshotter)
	if !ok {
		return nil, false
	}
	if differ, ok := r.filter.(fl.StateDiffer); ok && r.replPrevFilter != nil {
		delta, err := differ.DiffState(r.replPrevFilter)
		if err == nil {
			cur, err := sf.SnapshotState()
			if err == nil {
				r.replPrevFilter = cur
				return delta, false
			}
		}
	}
	cur, err := sf.SnapshotState()
	if err != nil {
		log.Printf("topology: replication filter snapshot failed: %v", err)
		r.replPrevFilter = nil
		return nil, false
	}
	r.replPrevFilter = cur
	return cur, true
}
