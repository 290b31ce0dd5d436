// Package core implements AsyncFilter, the paper's primary contribution: a
// server-side plug-and-play module that detects and filters poisoned model
// updates in asynchronous federated learning without requiring the server
// to hold any dataset.
//
// The filter runs in three steps per aggregation round (paper Section 4.3):
//
//  1. Staleness-based grouping: updates are grouped by staleness, because
//     updates trained from different global-model versions differ more than
//     poisoned vs. genuine updates do.
//  2. Moving-average estimation + suspicious scores: each staleness group
//     maintains a cumulative moving average of the updates it has seen
//     (Eq. 5); each update's L2 distance to its group estimate (Eq. 6) is
//     normalized into a suspicious score (Eq. 7).
//  3. Attacker identification: 1-D 3-means clustering over the scores. The
//     highest-score cluster is rejected, the lowest accepted, and the
//     middle — weak attackers mixed with honest non-IID clients — is
//     tolerated (deferred to a later aggregation by default).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/asyncfl/asyncfilter/internal/cluster"
	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// Group estimator kinds.
const (
	// EstimatorMA is the paper's cumulative moving average (Eq. 5).
	EstimatorMA = "ma"
	// EstimatorBatch uses only the current batch's per-group mean, an
	// ablation showing the value of cross-round smoothing.
	EstimatorBatch = "batch"
	// EstimatorEWMA is an exponentially weighted moving average ablation.
	EstimatorEWMA = "ewma"
)

// Score normalization kinds.
const (
	// NormalizeGroupRMS divides each update's distance by the median
	// distance of its own staleness group, centering every group's benign
	// scores near 1 regardless of how far the group as a whole sits from
	// its estimate. This neutralizes the systematic per-group score
	// offsets that staleness introduces (the paper's stated purpose for
	// grouping); the median (rather than a mean-square) scale stays
	// uncontaminated as long as attackers are a minority of the group.
	// This is the default.
	NormalizeGroupRMS = "group-rms"
	// NormalizeBatch divides each distance by the root of the sum of
	// squared distances across the whole arrival batch, yielding scores in
	// [0, 1] that are directly comparable for clustering.
	NormalizeBatch = "batch"
	// NormalizeGroups is the literal reading of the paper's Eq. 7: each
	// client's distance to its own group estimate is divided by the root
	// of the summed squared distances from that client to every group
	// estimate. Falls back to batch normalization when fewer than two
	// staleness groups exist.
	NormalizeGroups = "groups"
)

// Config parameterizes AsyncFilter. The zero value is NOT valid; use
// DefaultConfig as a starting point.
type Config struct {
	// K is the number of score clusters; the paper uses 3 and evaluates 2
	// as an ablation (Figure 7). Must be >= 2.
	K int
	// MiddlePolicy decides the fate of the intermediate clusters (those
	// that are neither the lowest- nor the highest-score cluster):
	// fl.Accept, fl.Defer (paper default: contribute at a later stage) or
	// fl.Reject.
	MiddlePolicy fl.Decision
	// GroupByStaleness enables step 1; disabling it (single global group)
	// is an ablation. Default true.
	GroupByStaleness bool
	// Estimator selects the per-group estimator: EstimatorMA (paper),
	// EstimatorBatch or EstimatorEWMA.
	Estimator string
	// EWMAAlpha is the smoothing factor when Estimator == EstimatorEWMA.
	EWMAAlpha float64
	// Normalization selects the score normalization: NormalizeGroupRMS
	// (default), NormalizeBatch or NormalizeGroups.
	Normalization string
	// MinBatch is the smallest arrival batch the filter will cluster;
	// smaller batches are accepted wholesale (too few points to separate
	// K clusters reliably). Zero selects 2*K.
	MinBatch int
	// RejectCooldown prevents starvation of honest non-IID clients: after
	// a client's update is rejected, its next RejectCooldown arrivals are
	// exempt from rejection (accepted regardless of score). Without this,
	// a client whose legitimate data makes its updates statistical
	// outliers every round — common for rare-label holders under extreme
	// Dirichlet skew — would be excluded permanently and its classes never
	// learned, an exclusion bias the paper's 3-means tolerance is designed
	// to avoid. Sustained attackers are still damped to
	// 1/(RejectCooldown+1) of their update mass. Zero selects 1; negative
	// disables the exemption.
	RejectCooldown int
	// RejectThreshold guards against over-filtering in benign rounds: a
	// cluster is eligible for rejection/deferral only when its center
	// sits at least RejectThreshold standard deviations above the mean of
	// the scores in the clusters below it. K-means always produces K
	// clusters even when scores are pure noise, so without this guard the
	// filter would discard the top score cluster of perfectly clean
	// batches every round; a separation criterion (rather than a score
	// ratio) keeps the guard scale-free, which matters because adaptive
	// optimizers such as Adam concentrate update distances into a narrow
	// band. Zero selects 4.
	RejectThreshold float64
	// Seed drives the k-means initialization.
	Seed int64
}

// DefaultConfig returns the paper's configuration: 3-means, staleness
// grouping, cumulative moving averages, deferred middle cluster.
func DefaultConfig() Config {
	return Config{
		K:                3,
		MiddlePolicy:     fl.Defer,
		GroupByStaleness: true,
		Estimator:        EstimatorMA,
		Normalization:    NormalizeGroupRMS,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("core: Config: K = %d, need >= 2", c.K)
	}
	switch c.MiddlePolicy {
	case fl.Accept, fl.Defer, fl.Reject:
	default:
		return fmt.Errorf("core: Config: invalid MiddlePolicy %v", c.MiddlePolicy)
	}
	switch c.Estimator {
	case EstimatorMA, EstimatorBatch, EstimatorEWMA:
	default:
		return fmt.Errorf("core: Config: unknown Estimator %q", c.Estimator)
	}
	if c.Estimator == EstimatorEWMA && (c.EWMAAlpha <= 0 || c.EWMAAlpha > 1) {
		return fmt.Errorf("core: Config: EWMAAlpha = %v, need (0, 1]", c.EWMAAlpha)
	}
	switch c.Normalization {
	case NormalizeGroupRMS, NormalizeBatch, NormalizeGroups:
	default:
		return fmt.Errorf("core: Config: unknown Normalization %q", c.Normalization)
	}
	if c.MinBatch < 0 {
		return fmt.Errorf("core: Config: MinBatch = %d, need >= 0", c.MinBatch)
	}
	if c.RejectThreshold < 0 {
		return fmt.Errorf("core: Config: RejectThreshold = %v, need >= 0", c.RejectThreshold)
	}
	return nil
}

// AsyncFilter is the stateful filter module. It is not safe for concurrent
// use; the server serializes aggregation rounds.
type AsyncFilter struct {
	cfg    Config
	rng    *rand.Rand
	groups map[int]estimator // staleness level -> group estimator
	dim    int               // update dimensionality, learned on first batch

	// amnesty tracks per-client rejection-cooldown credits (see
	// Config.RejectCooldown).
	amnesty map[int]int

	// Round diagnostics, refreshed by each Filter call.
	lastScores []float64
	rounds     int

	// obs, when non-nil, receives one DecisionEvent per update and one
	// FilterRoundEvent per Filter call. Emission is purely observational
	// and never alters verdicts, estimator folding or RNG consumption.
	obs fl.FilterObserver
}

type estimator interface {
	Add(x []float64)
	Mean() []float64
	Count() int
}

// batchEstimator wraps a cumulative vector mean; with EstimatorBatch the
// filter rebuilds one per round, with EstimatorMA it persists per group.
type batchEstimator struct {
	ma *stats.VectorMA
}

func (b *batchEstimator) Add(x []float64) { b.ma.Add(x) }
func (b *batchEstimator) Mean() []float64 { return b.ma.Mean() }
func (b *batchEstimator) Count() int      { return b.ma.Count() }

// ewmaEstimator wraps stats.EWMA with an observation counter.
type ewmaEstimator struct {
	e     *stats.EWMA
	count int
}

func (w *ewmaEstimator) Add(x []float64) { w.e.Add(x); w.count++ }
func (w *ewmaEstimator) Mean() []float64 { return w.e.Mean() }
func (w *ewmaEstimator) Count() int      { return w.count }

// New builds an AsyncFilter from the configuration.
func New(cfg Config) (*AsyncFilter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinBatch == 0 {
		cfg.MinBatch = 2 * cfg.K
	}
	if vecmath.IsZero(cfg.RejectThreshold) {
		cfg.RejectThreshold = 4
	}
	if cfg.RejectCooldown == 0 {
		cfg.RejectCooldown = 1
	}
	return &AsyncFilter{
		cfg:     cfg,
		rng:     randx.New(cfg.Seed),
		groups:  make(map[int]estimator),
		amnesty: make(map[int]int),
	}, nil
}

var (
	_ fl.Filter           = (*AsyncFilter)(nil)
	_ fl.ObservableFilter = (*AsyncFilter)(nil)
)

// SetObserver implements fl.ObservableFilter. Call before the filter is
// handed to a server; the filter is not safe for concurrent use.
func (f *AsyncFilter) SetObserver(obs fl.FilterObserver) { f.obs = obs }

// emit publishes one decision event per update plus the round summary.
// decisions == nil means every update was accepted; assign == nil means
// the batch was never clustered (events carry cluster -1); pre holds the
// pre-amnesty verdicts so amnesty flips are visible in the events.
func (f *AsyncFilter) emit(round int, updates []*fl.Update, groupOf []int, scores []float64, assign []int, decisions, pre []fl.Decision, wholesale bool) {
	if f.obs == nil {
		return
	}
	var acc, def, rej int
	for i, u := range updates {
		d := fl.Accept
		if decisions != nil {
			d = decisions[i]
		}
		switch d {
		case fl.Defer:
			def++
		case fl.Reject:
			rej++
		default:
			acc++
		}
		cl := -1
		if assign != nil {
			cl = assign[i]
		}
		f.obs.ObserveDecision(fl.DecisionEvent{
			Round:    round,
			ClientID: u.ClientID,
			Group:    groupOf[i],
			Cluster:  cl,
			Score:    scores[i],
			Decision: d,
			Amnesty:  pre != nil && pre[i] != d,
		})
	}
	f.obs.ObserveFilterRound(fl.FilterRoundEvent{
		Round:     round,
		Batch:     len(updates),
		Accepted:  acc,
		Deferred:  def,
		Rejected:  rej,
		Groups:    len(f.groups),
		Wholesale: wholesale,
	})
}

// Name implements fl.Filter.
func (f *AsyncFilter) Name() string {
	if f.cfg.K == 3 {
		return "asyncfilter"
	}
	return fmt.Sprintf("asyncfilter-%dmeans", f.cfg.K)
}

// Config returns the filter's configuration.
func (f *AsyncFilter) Config() Config { return f.cfg }

// Rounds returns the number of Filter calls processed.
func (f *AsyncFilter) Rounds() int { return f.rounds }

// groupKey maps an update to its staleness group.
func (f *AsyncFilter) groupKey(u *fl.Update) int {
	if !f.cfg.GroupByStaleness {
		return 0
	}
	return u.Staleness
}

// newEstimator builds a fresh estimator for one staleness group.
func (f *AsyncFilter) newEstimator() estimator {
	switch f.cfg.Estimator {
	case EstimatorEWMA:
		e, err := stats.NewEWMA(f.dim, f.cfg.EWMAAlpha)
		if err != nil {
			// Config was validated in New; this is unreachable.
			panic(err)
		}
		return &ewmaEstimator{e: e}
	default:
		return &batchEstimator{ma: stats.NewVectorMA(f.dim)}
	}
}

// Filter implements fl.Filter, running the three AsyncFilter steps.
//
//afl:hotpath
func (f *AsyncFilter) Filter(updates []*fl.Update, round int) (fl.FilterResult, error) {
	f.rounds++
	n := len(updates)
	if n == 0 {
		return fl.FilterResult{}, nil
	}
	if f.dim == 0 {
		f.dim = len(updates[0].Delta)
	}
	for i, u := range updates {
		if len(u.Delta) != f.dim {
			return fl.FilterResult{}, fmt.Errorf("core: Filter: update %d has dim %d, want %d", i, len(u.Delta), f.dim)
		}
	}

	// Step 1: group by staleness (Eq. 4).
	groupOf := make([]int, n)
	live := f.groups
	if f.cfg.Estimator == EstimatorBatch {
		// Ablation: per-round estimators with no cross-round memory.
		live = make(map[int]estimator)
	}
	members := make(map[int][]*fl.Update)
	for i, u := range updates {
		k := f.groupKey(u)
		groupOf[i] = k
		members[k] = append(members[k], u)
		if _, ok := live[k]; !ok {
			live[k] = f.newEstimator()
		}
	}

	// Batch-only estimators fold the whole (unfiltered) batch: they have
	// no cross-round state to protect.
	if f.cfg.Estimator == EstimatorBatch {
		for k, est := range live {
			for _, u := range members[k] {
				est.Add(u.Delta)
			}
		}
	}

	// Step 2: distances to the own-group estimate (Eq. 6) and score
	// normalization (Eq. 7). Updates are scored against the estimator
	// state from BEFORE this batch, so crafted updates cannot drag the
	// estimate toward themselves in the round they arrive; the estimators
	// are extended with the accepted updates only, after the verdicts
	// (see fold below). Groups with fewer than two past observations have
	// a degenerate or missing estimate and fall back to the pooled batch
	// mean.
	pooled := stats.NewVectorMA(f.dim)
	for _, u := range updates {
		pooled.Add(u.Delta)
	}
	//lint:ignore hotalloc per-round distance scratch sized by the batch; the update arena pools whole deltas only, filter-owned scratch is the filter-core item in ROADMAP.md
	dists := make([]float64, n)
	for i, u := range updates {
		//lint:ignore hotalloc the reference mean is a fresh vector per group; computing it lazily into filter-owned scratch is the filter-core item in ROADMAP.md
		ref := f.referenceMean(live, groupOf[i], pooled)
		dists[i] = vecmath.Distance(ref, u.Delta)
	}
	//lint:ignore hotalloc scores escape through LastScores and the observer, so the round must own a fresh slice
	scores := f.normalize(updates, dists, live, groupOf)
	f.lastScores = scores

	// fold extends the persistent estimators with the non-rejected
	// updates (EstimatorBatch has no persistent state and skips this).
	// Duplicate deltas from different clients are folded once: colluding
	// attackers all transmit the same crafted vector (LIE, Min-Max and
	// Min-Sum do), and folding it per-sender would let the collusion drag
	// the group estimate toward the poison with k times its fair weight.
	fold := func(decisions []fl.Decision) {
		if f.cfg.Estimator == EstimatorBatch {
			return
		}
		folded := make(map[int][][]float64)
		dedup := func(k int, x []float64) bool {
			for _, prev := range folded[k] {
				if vecmath.EqualApprox(prev, x, 1e-12) {
					return true
				}
			}
			folded[k] = append(folded[k], x)
			return false
		}
		if f.cfg.Estimator == EstimatorEWMA {
			// EWMA is an across-rounds smoother: fold one observation per
			// round (the group's accepted batch mean) so in-batch arrival
			// order cannot bias the estimate.
			sums := make(map[int][]float64)
			counts := make(map[int]int)
			for i, u := range updates {
				if decisions != nil && decisions[i] == fl.Reject {
					continue
				}
				k := groupOf[i]
				if dedup(k, u.Delta) {
					continue
				}
				if sums[k] == nil {
					//lint:ignore hotalloc one accumulator per live staleness group per round; the update arena pools whole deltas only, filter-owned scratch is the filter-core item in ROADMAP.md
					sums[k] = make([]float64, f.dim)
				}
				vecmath.Add(sums[k], sums[k], u.Delta)
				counts[k]++
			}
			for k, sum := range sums {
				vecmath.Scale(sum, 1/float64(counts[k]), sum)
				live[k].Add(sum)
			}
			return
		}
		for i, u := range updates {
			if decisions != nil && decisions[i] == fl.Reject {
				continue
			}
			k := groupOf[i]
			if dedup(k, u.Delta) {
				continue
			}
			live[k].Add(u.Delta)
		}
	}

	// Small batches cannot support K clusters; accept wholesale.
	if n < f.cfg.MinBatch {
		fold(nil)
		res := fl.AcceptAll(n)
		res.Scores = scores
		f.emit(round, updates, groupOf, scores, nil, nil, nil, true)
		return res, nil
	}

	// Step 3: K-means over scores; highest cluster rejected, lowest
	// accepted, middle per policy.
	km, err := cluster.KMeans1D(scores, f.cfg.K, f.rng, cluster.Options{})
	if err != nil {
		return fl.FilterResult{}, fmt.Errorf("core: Filter: clustering: %w", err)
	}

	// Clusters come back ordered by ascending center. Identify the lowest
	// and highest non-empty clusters.
	lowest, highest := -1, -1
	for c := 0; c < f.cfg.K; c++ {
		if km.Sizes[c] == 0 {
			continue
		}
		if lowest == -1 {
			lowest = c
		}
		highest = c
	}
	decisions := make([]fl.Decision, n)
	if lowest == highest {
		// All scores in one cluster: indistinguishable, accept everything.
		for i := range decisions {
			decisions[i] = fl.Accept
		}
		fold(nil)
		f.emit(round, updates, groupOf, scores, km.Assignments, decisions, nil, false)
		return fl.FilterResult{Decisions: decisions, Scores: scores}, nil
	}

	// Rejection guard: k-means always yields K clusters, even on pure
	// noise, so a cluster receives a non-accept verdict only when it is
	// statistically separated from the clusters below it: its center must
	// sit RejectThreshold standard deviations above their mean.
	eligible := func(c int) bool {
		var below stats.Welford
		for i, s := range scores {
			if km.Assignments[i] < c {
				below.Add(s)
			}
		}
		// The clusters below must hold a majority of the batch: the
		// benign population is assumed to outnumber the attackers, so a
		// cluster that towers over only a small minority is not evidence
		// of an attack (it usually means the batch's bulk is above it).
		if below.N() < 2 || below.N() <= n/2 {
			return false
		}
		sd := below.StdDev()
		if vecmath.IsZero(sd) {
			// Identical lower scores: any strictly larger center separates.
			return km.Centers[c][0] > below.Mean()
		}
		return km.Centers[c][0] >= below.Mean()+f.cfg.RejectThreshold*sd
	}
	for i := range updates {
		c := km.Assignments[i]
		switch {
		case c == lowest || !eligible(c):
			decisions[i] = fl.Accept
		case c == highest:
			decisions[i] = fl.Reject
		default:
			decisions[i] = f.cfg.MiddlePolicy
		}
	}
	var preAmnesty []fl.Decision
	if f.obs != nil {
		preAmnesty = append([]fl.Decision(nil), decisions...)
	}
	f.applyAmnesty(updates, decisions)
	fold(decisions)
	f.emit(round, updates, groupOf, scores, km.Assignments, decisions, preAmnesty, false)
	return fl.FilterResult{Decisions: decisions, Scores: scores}, nil
}

// applyAmnesty enforces the rejection cooldown: clients holding an
// exemption credit get their non-accept verdict converted to accept, and
// fresh rejections grant the client RejectCooldown credits.
func (f *AsyncFilter) applyAmnesty(updates []*fl.Update, decisions []fl.Decision) {
	if f.cfg.RejectCooldown < 0 {
		return
	}
	for i, u := range updates {
		if decisions[i] == fl.Accept {
			continue
		}
		if f.amnesty[u.ClientID] > 0 {
			f.amnesty[u.ClientID]--
			decisions[i] = fl.Accept
			continue
		}
		if decisions[i] == fl.Reject {
			f.amnesty[u.ClientID] = f.cfg.RejectCooldown
		}
	}
}

// referenceMean picks the estimate an update in group k is scored
// against: the group's own estimator when it has history, otherwise the
// estimator of the nearest staleness group (model drift is smooth in
// staleness, so a neighbouring group is a far better reference than the
// whole batch), otherwise the pooled batch mean. Of two equally near
// groups (k-1 and k+1) the lower staleness key wins, so the choice never
// depends on map iteration order.
func (f *AsyncFilter) referenceMean(live map[int]estimator, k int, pooled *stats.VectorMA) []float64 {
	if est := live[k]; est != nil && est.Count() >= 2 {
		return est.Mean()
	}
	bestDist, bestKey := -1, 0
	var best estimator
	for kk, est := range live {
		if est.Count() < 2 {
			continue
		}
		d := kk - k
		if d < 0 {
			d = -d
		}
		if bestDist == -1 || d < bestDist || (d == bestDist && kk < bestKey) {
			bestDist, bestKey = d, kk
			best = est
		}
	}
	if best != nil {
		return best.Mean()
	}
	return pooled.Mean()
}

// normalize converts raw distances into suspicious scores per the
// configured normalization.
func (f *AsyncFilter) normalize(updates []*fl.Update, dists []float64, live map[int]estimator, groupOf []int) []float64 {
	n := len(dists)
	scores := make([]float64, n)

	if f.cfg.Normalization == NormalizeGroupRMS {
		// Per-group robust normalization: divide each member's distance
		// by its group's median distance.
		byGroup := make(map[int][]float64)
		for i := range dists {
			byGroup[groupOf[i]] = append(byGroup[groupOf[i]], dists[i])
		}
		meds := make(map[int]float64, len(byGroup))
		for k, ds := range byGroup {
			meds[k] = stats.Median(ds)
		}
		for i, d := range dists {
			med := meds[groupOf[i]]
			switch {
			case med > 0:
				scores[i] = d / med
			case vecmath.IsZero(d):
				scores[i] = 1
			default:
				scores[i] = 2 // positive distance over a zero-median group
			}
		}
		return scores
	}

	if f.cfg.Normalization == NormalizeGroups && len(live) >= 2 {
		// Eq. 7 literal: per-client denominator over all group estimates,
		// summed in ascending staleness-key order so identical filters
		// give bit-identical scores.
		keys := make([]int, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		for i, u := range updates {
			var denom float64
			for _, k := range keys {
				d := vecmath.Distance(live[k].Mean(), u.Delta)
				denom += d * d
			}
			if denom <= 0 {
				scores[i] = 0
				continue
			}
			scores[i] = dists[i] / math.Sqrt(denom)
		}
		return scores
	}

	// Batch normalization: scores sum-of-squares to 1 across the batch.
	var denom float64
	for _, d := range dists {
		denom += d * d
	}
	if denom <= 0 {
		return scores // all zero distances -> all zero scores
	}
	inv := 1 / math.Sqrt(denom)
	for i, d := range dists {
		scores[i] = d * inv
	}
	return scores
}

// LastScores returns the suspicious scores computed by the most recent
// Filter call (diagnostics; the slice is owned by the filter).
func (f *AsyncFilter) LastScores() []float64 { return f.lastScores }

// GroupCount returns the number of staleness groups tracked so far.
func (f *AsyncFilter) GroupCount() int { return len(f.groups) }
