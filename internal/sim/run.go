package sim

import (
	"container/heap"
	"errors"
	"fmt"

	"github.com/asyncfl/asyncfilter/internal/attack"
	"github.com/asyncfl/asyncfilter/internal/dataset"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/model"
	"github.com/asyncfl/asyncfilter/internal/optim"
)

// PresetModelAndTrainer returns the model architecture and trainer
// configuration the paper's Table 1 assigns to each dataset: a LeNet-5
// stand-in (linear softmax) with SGD+momentum for MNIST/FashionMNIST, and
// a VGG-16 stand-in (MLP) with Adam for CIFAR-10/CINIC-10. Local epochs
// and the Adam learning rate are scaled down from Table 1 (5 epochs, lr
// 0.01) to 2 epochs / lr 0.003: the synthetic substrate converges orders
// of magnitude faster than the paper's image corpora, and keeping the
// original budget over-drifts the local models.
func PresetModelAndTrainer(preset string, data dataset.SyntheticConfig) (model.Config, fl.TrainerConfig) {
	switch preset {
	case dataset.CIFAR10, dataset.CINIC10:
		return model.Config{
				Arch:       model.ArchMLP,
				InputDim:   data.Dim,
				NumClasses: data.NumClasses,
				Hidden:     []int{32},
			}, fl.TrainerConfig{
				Epochs:    3,
				BatchSize: 128,
				Optim:     optim.Config{Name: optim.AdamName, LR: 0.01},
			}
	default:
		return model.Config{
				Arch:       model.ArchLinear,
				InputDim:   data.Dim,
				NumClasses: data.NumClasses,
			}, fl.TrainerConfig{
				Epochs:    2,
				BatchSize: 32,
				Optim:     optim.Config{Name: optim.SGDName, LR: 0.01, Momentum: 0.9},
			}
	}
}

// Run executes the simulation to completion.
func (s *Simulation) Run() (*Result, error) {
	res := &Result{
		FilterName: s.filter.Name(),
		AttackName: s.atk.Name(),
	}

	// Prime the event queue: every client starts training at t=0 from
	// version 0 (the paper's sampler selects all clients each round).
	queue := &eventQueue{}
	heap.Init(queue)
	seq := 0
	schedule := func(c *client, now float64) {
		c.baseVersion = s.eng.Version
		jitter := 0.9 + 0.2*s.jitter.Float64()
		delay := c.latency * jitter
		if s.cfg.CrashRate > 0 && s.jitter.Float64() < s.cfg.CrashRate {
			// Injected crash: the device goes dark for roughly ten task
			// durations before rejoining with a fresh model.
			res.Crashes++
			delay += 10 * c.latency
		}
		heap.Push(queue, event{time: now + delay, seq: seq, clientID: c.id})
		seq++
	}
	for _, c := range s.clients {
		schedule(c, 0)
	}

	var stalenessSum float64
	var stalenessCount int
	now := 0.0

	for s.eng.Version < s.cfg.Rounds {
		if queue.Len() == 0 {
			return nil, fmt.Errorf("sim: event queue drained before round %d", s.eng.Version)
		}
		ev := heap.Pop(queue).(event)
		now = ev.time
		c := s.clients[ev.clientID]

		staleness := s.eng.Version - c.baseVersion
		if s.cfg.StalenessLimit > 0 && staleness > s.cfg.StalenessLimit {
			// The server would discard this update on arrival; skip the
			// (wasted) training work entirely.
			res.DroppedStale++
			schedule(c, now)
			continue
		}

		base, ok := s.snapshots[c.baseVersion]
		if !ok {
			return nil, fmt.Errorf("sim: missing snapshot for version %d", c.baseVersion)
		}
		delta, err := s.localTrain(c, base)
		if err != nil {
			return nil, fmt.Errorf("sim: client %d: %w", c.id, err)
		}
		if s.cfg.DropoutRate > 0 && s.jitter.Float64() < s.cfg.DropoutRate {
			// Injected transit failure: the update never reaches the
			// server; the client starts over on the latest model.
			res.LostUpdates++
			schedule(c, now)
			continue
		}
		update := &fl.Update{
			ClientID:    c.id,
			BaseVersion: c.baseVersion,
			Staleness:   staleness,
			Delta:       delta,
			NumSamples:  c.data.Len(),
		}
		if s.buffer.Add(update) {
			stalenessSum += float64(staleness)
			stalenessCount++
		} else {
			res.DroppedStale++
		}
		schedule(c, now)

		if !s.buffer.Ready() {
			continue
		}
		if err := s.aggregateRound(res, now); err != nil {
			return nil, err
		}
	}

	if stalenessCount > 0 {
		res.MeanStaleness = stalenessSum / float64(stalenessCount)
	}
	res.Rounds = s.eng.Version
	res.SimTime = now
	res.FinalAccuracy, res.FinalLoss = s.evaluate()
	if len(res.History) == 0 || res.History[len(res.History)-1].Round != s.eng.Version {
		res.History = append(res.History, RoundPoint{
			Round: s.eng.Version, Time: now,
			Accuracy: res.FinalAccuracy, Loss: res.FinalLoss,
		})
	}
	return res, nil
}

// localTrain runs one client's local optimization from the given base
// parameters and returns the honest delta.
func (s *Simulation) localTrain(c *client, base []float64) ([]float64, error) {
	m := s.proto.Clone()
	m.SetParams(base)
	return fl.LocalTrain(m, c.data, s.cfg.Trainer, c.rng)
}

// aggregateRound runs one engine round on the full buffer, crafting the
// attack between drain and filter and tallying detection against ground
// truth before commit.
func (s *Simulation) aggregateRound(res *Result, now float64) error {
	rd := s.eng.Drain()
	updates := rd.Updates

	// Attack crafting: the malicious clients present in this batch collude,
	// replacing their honest deltas with crafted poison. Staleness-aware
	// (adaptive) attacks additionally receive each colluder's staleness.
	var maliciousIdx []int
	var honest [][]float64
	var staleness []int
	for i, u := range updates {
		if s.clients[u.ClientID].malicious {
			maliciousIdx = append(maliciousIdx, i)
			honest = append(honest, u.Delta)
			staleness = append(staleness, u.Staleness)
		}
	}
	if len(maliciousIdx) > 0 {
		var crafted [][]float64
		var err error
		if ga, ok := s.atk.(attack.GroupAware); ok {
			crafted, err = ga.CraftGrouped(honest, staleness, s.rng)
		} else {
			crafted, err = s.atk.Craft(honest, s.rng)
		}
		if err != nil {
			return fmt.Errorf("sim: attack crafting: %w", err)
		}
		for j, i := range maliciousIdx {
			updates[i].Delta = crafted[j]
		}
	}

	s.eng.Decide(rd)
	if len(rd.Errs) > 0 {
		return fmt.Errorf("sim: %w", errors.Join(rd.Errs...))
	}
	res.Accepted += len(rd.Accepted)
	res.Deferred += len(rd.Deferred)
	res.Rejected += len(rd.Rejected)
	maliciousInBatch, maliciousCaught := 0, 0
	for i, u := range updates {
		malicious := s.clients[u.ClientID].malicious
		flagged := rd.Result.Decisions[i] == fl.Reject
		if malicious {
			maliciousInBatch++
			if flagged {
				maliciousCaught++
			}
		}
		res.Detection.Observe(malicious, flagged)
	}
	if s.cfg.TraceWriter != nil {
		hist := make(map[int]int)
		for _, u := range updates {
			hist[u.Staleness]++
		}
		if err := s.writeTrace(s.cfg.TraceWriter, TraceRecord{
			Round:              rd.Number,
			Time:               now,
			BatchSize:          len(updates),
			Accepted:           len(rd.Accepted),
			Deferred:           len(rd.Deferred),
			Rejected:           len(rd.Rejected),
			MaliciousInBatch:   maliciousInBatch,
			MaliciousCaught:    maliciousCaught,
			StalenessHistogram: hist,
		}); err != nil {
			return err
		}
	}

	s.eng.Commit(rd)
	res.DroppedStale += rd.DroppedStale
	s.snapshots[s.eng.Version] = append([]float64(nil), s.eng.Global...)
	s.pruneSnapshots()
	if err := s.eng.Retire(rd, false); err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	if v := s.eng.Version; s.cfg.EvalEvery > 0 && v%s.cfg.EvalEvery == 0 && v < s.cfg.Rounds {
		acc, loss := s.evaluate()
		res.History = append(res.History, RoundPoint{Round: v, Time: now, Accuracy: acc, Loss: loss})
	}
	return nil
}

// pruneSnapshots drops model snapshots no in-flight client can still
// reference.
func (s *Simulation) pruneSnapshots() {
	oldest := s.eng.Version
	for _, c := range s.clients {
		if c.baseVersion < oldest {
			oldest = c.baseVersion
		}
	}
	for v := range s.snapshots {
		if v < oldest {
			delete(s.snapshots, v)
		}
	}
}

// evaluate returns the global model's test accuracy and loss.
func (s *Simulation) evaluate() (float64, float64) {
	m := s.proto.Clone()
	m.SetParams(s.eng.Global)
	return model.Evaluate(m, s.test)
}

// GlobalParams returns a copy of the current global parameters.
func (s *Simulation) GlobalParams() []float64 {
	return append([]float64(nil), s.eng.Global...)
}

// Version returns the current global model version.
func (s *Simulation) Version() int { return s.eng.Version }

// MaliciousClients returns the IDs of attacker-controlled clients.
func (s *Simulation) MaliciousClients() []int {
	var out []int
	for _, c := range s.clients {
		if c.malicious {
			out = append(out, c.id)
		}
	}
	return out
}

// Oracle returns a ServerOracle-compatible reference-update source backed
// by the clean server shard, or an error when the simulation was built
// without OracleShardFraction. The returned oracle trains a clone of the
// global model (at the requested version) on the clean shard with the same
// trainer configuration the clients use.
func (s *Simulation) Oracle() (*CleanShardOracle, error) {
	if s.rootShard == nil {
		return nil, fmt.Errorf("sim: no oracle shard configured (set OracleShardFraction)")
	}
	return &CleanShardOracle{sim: s, cache: make(map[int][]float64)}, nil
}

// CleanShardOracle computes trusted reference deltas from the server's
// clean data shard — the capability Zeno++ and AFLGuard assume.
type CleanShardOracle struct {
	sim   *Simulation
	cache map[int][]float64
}

// ReferenceDelta implements defense.ServerOracle.
func (o *CleanShardOracle) ReferenceDelta(baseVersion int) ([]float64, error) {
	if d, ok := o.cache[baseVersion]; ok {
		return d, nil
	}
	base, ok := o.sim.snapshots[baseVersion]
	if !ok {
		// The snapshot was pruned; fall back to the nearest retained
		// version (the oracle is only consulted for in-limit staleness, so
		// this is rare).
		base = o.sim.eng.Global
	}
	m := o.sim.proto.Clone()
	m.SetParams(base)
	delta, err := fl.LocalTrain(m, o.sim.rootShard, o.sim.cfg.Trainer, o.sim.jitter)
	if err != nil {
		return nil, fmt.Errorf("sim: oracle training: %w", err)
	}
	o.cache[baseVersion] = delta
	return delta, nil
}
