package fl

import (
	"fmt"
	"runtime/debug"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Engine is the one FedBuff aggregation round (paper Section 4.3: buffer
// to the goal, filter, aggregate) shared by every driver: the simulator,
// the transport server (flat or edge) and the hierarchical root. It owns
// the global model and its version, the filter and the combiner, and does
// no I/O; each driver keeps only its own concerns around it (locking,
// admission, statistics, checkpoints, attack crafting).
//
// A round runs Drain, Decide, Commit, Retire. Drain and Commit run under
// the driver's lock; Decide (the O(batch · dim) filter and combiner) and
// Retire run outside it. Engine is not safe for concurrent use: the
// driver runs one round at a time and guards Global, Version and the
// buffer with its own lock.
type Engine struct {
	// Global is the global parameter vector and Version the number of
	// committed rounds. Drivers read them, and replace them on restore,
	// under their own lock.
	Global  []float64
	Version int

	buffer   *Buffer
	filter   Filter
	combiner Combiner
	agg      AggregatorConfig
	arena    *Arena
}

// NewEngine builds a round engine over global, which it adopts. filter
// must be non-nil; combiner nil selects MeanCombiner, and arena may be
// nil when the driver does not pool its updates.
func NewEngine(global []float64, buffer *Buffer, filter Filter, combiner Combiner, agg AggregatorConfig, arena *Arena) *Engine {
	if combiner == nil {
		combiner = MeanCombiner{}
	}
	return &Engine{Global: global, buffer: buffer, filter: filter, combiner: combiner, agg: agg, arena: arena}
}

// Round is one aggregation round on its way from Drain to Retire.
type Round struct {
	// Number is the version this round commits (Version+1 at Drain).
	Number int
	// Updates is the drained batch: buffered updates first, then the
	// arrivals passed to Drain.
	Updates []*Update
	// Result holds the filter's verdicts, positionally.
	Result FilterResult
	// Accepted, Deferred and Rejected split Updates by verdict.
	Accepted, Deferred, Rejected []*Update
	// Delta is the combined update, nil when nothing was accepted or the
	// combiner failed.
	Delta []float64
	// Errs holds the failures the engine recovered from: the filter's
	// and the combiner's in Decide, the observer's in Retire. Panics
	// counts the panics among them.
	Errs   []error
	Panics int
	// DroppedStale counts deferrals Commit dropped for exceeding the
	// staleness limit.
	DroppedStale int

	// observed is the committed global model handed to a RoundObserver.
	observed []float64
}

// Drain starts a round: it takes every buffered update plus arrivals
// (updates that bypass the buffer's arrival check) and stamps each with
// its staleness against the current version. The caller holds its lock.
func (e *Engine) Drain(arrivals ...*Update) *Round {
	updates := append(e.buffer.Drain(), arrivals...)
	for _, u := range updates {
		u.Staleness = e.Version - u.BaseVersion
	}
	return &Round{Number: e.Version + 1, Updates: updates}
}

// Decide runs the filter, then the combiner on the accepted updates, each
// behind a recover guard; an empty batch skips the filter. A filter that
// fails, panics or returns a mis-sized verdict falls back to accepting
// the batch (FedBuff behaviour) rather than losing the round; a combiner
// that fails or panics loses the round's delta, but the round still
// commits. Decide touches no state the driver's lock guards, so the
// caller runs it unlocked.
func (e *Engine) Decide(r *Round) {
	if n := len(r.Updates); n > 0 && r.guard("filter "+e.filter.Name(), func() (err error) {
		r.Result, err = e.filter.Filter(r.Updates, r.Number)
		if err == nil && len(r.Result.Decisions) != n {
			err = fmt.Errorf("%d verdicts for %d updates", len(r.Result.Decisions), n)
		}
		return err
	}) {
		r.Result = AcceptAll(n)
	}
	r.Accepted, r.Deferred, r.Rejected = r.Result.Split(r.Updates)
	if len(r.Accepted) > 0 && r.guard("combiner "+e.combiner.Name(), func() (err error) {
		r.Delta, err = e.combiner.Combine(r.Accepted, e.agg)
		return err
	}) {
		r.Delta = nil
	}
}

// guard runs fn and records its failure, a returned error or a recovered
// panic, in r.Errs, counting panics in r.Panics. It reports whether fn
// failed.
func (r *Round) guard(what string, fn func() error) (failed bool) {
	defer func() {
		if p := recover(); p != nil {
			r.Panics++
			r.Errs = append(r.Errs, fmt.Errorf("round %d: %s panic: %v\n%s", r.Number, what, p, debug.Stack()))
			failed = true
		}
	}()
	if err := fn(); err != nil {
		r.Errs = append(r.Errs, fmt.Errorf("round %d: %s: %w", r.Number, what, err))
		return true
	}
	return false
}

// Commit applies a decided round: the delta joins the global model, the
// version advances (even when nothing was accepted: the round happened,
// and staleness accounting depends on it), and the deferrals go back to
// the buffer with their staleness recomputed against the new version.
// The caller holds its lock. The deferrals' ownership passes to the
// buffer.
//
//afl:owned
func (e *Engine) Commit(r *Round) {
	if r.Delta != nil {
		vecmath.Add(e.Global, e.Global, r.Delta)
	}
	e.Version++
	r.DroppedStale = e.buffer.RequeueAt(r.Deferred, e.Version)
	if _, ok := e.filter.(RoundObserver); ok {
		r.observed = vecmath.Clone(e.Global)
	}
}

// Retire ends a committed round. A RoundObserver filter first sees the
// new global model and the accepted updates; then the rejected updates
// return to the arena, and so do the accepted ones unless keepAccepted
// (the caller took ownership of them). The deferrals are back in the
// buffer and stay alive. Retire runs unlocked, before the next round's
// Decide; it returns the observer's recovered panic, if any.
//
//afl:owned
func (e *Engine) Retire(r *Round, keepAccepted bool) (err error) {
	obs, ok := e.filter.(RoundObserver)
	if ok && r.guard("observer", func() error { obs.ObserveRound(r.Number, r.observed, r.Accepted); return nil }) {
		err = r.Errs[len(r.Errs)-1]
	}
	if e.arena != nil {
		for _, u := range r.Rejected {
			e.arena.PutUpdate(u)
		}
		if !keepAccepted {
			for _, u := range r.Accepted {
				e.arena.PutUpdate(u)
			}
		}
	}
	return err
}
