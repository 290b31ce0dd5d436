package transport

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"sort"
	"time"

	"github.com/asyncfl/asyncfilter/internal/checkpoint"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// serverSnapshot is the durable server state embedded in a checkpoint
// file: everything a restarted server needs to let reconnecting clients
// resume at the correct model version with filter history intact.
// Sessions are stored as a sorted slice so equal states serialize
// identically.
type serverSnapshot struct {
	// FilterName guards against restoring one filter's state into another.
	FilterName string
	Global     []float64
	Version    int
	Stats      ServerStats
	Sessions   []sessionSnapshot
	Buffer     fl.BufferState
	// Filter is the fl.StateSnapshotter payload; nil when the filter is
	// stateless.
	Filter []byte
}

// sessionSnapshot preserves one client's identity, aggregation weight and
// admission-control bookkeeping. Quarantine and lease deadlines are stored
// as remaining durations relative to capture time, not absolute clocks: a
// snapshot restored minutes (or on a machine with a different clock) later
// re-arms the same remaining cooldown, so a restart never un-quarantines a
// known attacker early.
type sessionSnapshot struct {
	ClientID   int
	NumSamples int
	// ConsecRejects is the client's consecutive filter-rejection streak
	// feeding the quarantine circuit breaker.
	ConsecRejects int
	// HalfOpen marks a breaker awaiting its half-open probe verdict.
	HalfOpen bool
	// QuarantineRemaining is the cooldown left on an open breaker at
	// capture time (0 = breaker closed).
	QuarantineRemaining time.Duration
	// LeaseRemaining is the lease time left at capture (0 = no live lease).
	LeaseRemaining time.Duration
}

// shouldCheckpointLocked reports whether this round's state should be
// snapshotted: checkpointing is enabled and the round counter hits the
// configured cadence (or the deployment just finished). Callers hold
// s.mu.
func (s *Server) shouldCheckpointLocked() bool {
	if s.cfg.CheckpointPath == "" {
		return false
	}
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	return s.eng.Version%every == 0 || s.finished
}

// captureSnapshotLocked deep-copies the server's durable fields into a
// snapshot. Callers hold s.mu. The filter's own state is deliberately
// absent: it is captured later by writeSnapshot, outside the lock, once
// the round's ObserveRound has run.
func (s *Server) captureSnapshotLocked() *serverSnapshot {
	snap := &serverSnapshot{
		FilterName: s.filter.Name(),
		Global:     vecmath.Clone(s.eng.Global),
		Version:    s.eng.Version,
		Stats:      s.stats,
		Buffer:     s.buffer.Snapshot(),
		Sessions:   make([]sessionSnapshot, 0, len(s.sessions)),
	}
	now := time.Now()
	for id, sess := range s.sessions {
		ss := sessionSnapshot{
			ClientID:      id,
			NumSamples:    sess.numSamples,
			ConsecRejects: sess.consecRejects,
			HalfOpen:      sess.halfOpen,
		}
		if rem := sess.quarantinedUntil.Sub(now); rem > 0 {
			ss.QuarantineRemaining = rem
		}
		if !sess.leaseExpiry.IsZero() {
			if rem := sess.leaseExpiry.Sub(now); rem > 0 {
				ss.LeaseRemaining = rem
			}
		}
		snap.Sessions = append(snap.Sessions, ss)
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ClientID < snap.Sessions[j].ClientID })
	return snap
}

// writeSnapshot adds the filter state to a captured snapshot and writes
// the result atomically to the configured path. It runs without s.mu so
// the gob encode and file I/O never stall connection handlers; callers
// (the aggregation round, Close) guarantee the filter is quiescent.
// Write failures are logged and counted against nothing: a failed
// checkpoint must not wedge the deployment, the next cadence point simply
// tries again.
func (s *Server) writeSnapshot(snap *serverSnapshot) {
	// Recover guard: SnapshotState calls into the (possibly buggy) filter
	// while the aggregating flag is set; a panic escaping here would leave
	// the flag stuck and wedge Close.
	defer s.recoverPanic("checkpoint")
	if snapshotter, ok := s.filter.(fl.StateSnapshotter); ok {
		data, err := snapshotter.SnapshotState()
		if err != nil {
			log.Printf("transport: checkpoint skipped: filter snapshot failed: %v", err)
			return
		}
		snap.Filter = data
	}
	if err := checkpoint.Save(s.cfg.CheckpointPath, snap); err != nil {
		log.Printf("transport: checkpoint write failed: %v", err)
		return
	}
	s.mu.Lock()
	s.stats.Checkpoints++
	s.mu.Unlock()
}

// restoreFromCheckpoint loads an existing snapshot into a freshly built
// server. A missing file means a fresh deployment and is not an error;
// anything else — corruption, a format-version mismatch, state written by
// a different filter or model — fails NewServer loudly rather than
// restoring partial state. The filter's state is restored before any
// server field is committed, so a failed restore leaves nothing half
// applied.
func (s *Server) restoreFromCheckpoint(path string) error {
	var snap serverSnapshot
	err := checkpoint.Load(path, &snap)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("transport: restore from %s: %w", path, err)
	}
	if len(snap.Global) != len(s.cfg.InitialParams) {
		return fmt.Errorf("transport: restore from %s: checkpoint holds a %d-parameter model, config expects %d",
			path, len(snap.Global), len(s.cfg.InitialParams))
	}
	if snap.Version < 0 {
		return fmt.Errorf("transport: restore from %s: negative version %d", path, snap.Version)
	}
	if snap.FilterName != s.filter.Name() {
		return fmt.Errorf("transport: restore from %s: checkpoint written by filter %q, server runs %q",
			path, snap.FilterName, s.filter.Name())
	}
	if len(snap.Filter) > 0 {
		snapshotter, ok := s.filter.(fl.StateSnapshotter)
		if !ok {
			return fmt.Errorf("transport: restore from %s: checkpoint carries filter state but filter %q cannot restore it",
				path, s.filter.Name())
		}
		if err := snapshotter.RestoreState(snap.Filter); err != nil {
			return fmt.Errorf("transport: restore from %s: %w", path, err)
		}
	}

	s.eng.Global = vecmath.Clone(snap.Global)
	s.eng.Version = snap.Version
	s.stats = snap.Stats
	s.buffer.Restore(snap.Buffer)
	now := time.Now()
	for _, ss := range snap.Sessions {
		sess := &clientSession{
			id:            ss.ClientID,
			numSamples:    ss.NumSamples,
			consecRejects: ss.ConsecRejects,
			halfOpen:      ss.HalfOpen,
		}
		if ss.QuarantineRemaining > 0 {
			sess.quarantinedUntil = now.Add(ss.QuarantineRemaining)
		}
		if ss.LeaseRemaining > 0 {
			sess.leaseExpiry = now.Add(ss.LeaseRemaining)
		}
		s.sessions[ss.ClientID] = sess
	}
	s.restored = true
	if s.eng.Version >= s.cfg.Rounds {
		// The checkpoint captured an already-completed deployment.
		s.finished = true
		close(s.done)
	}
	return nil
}
