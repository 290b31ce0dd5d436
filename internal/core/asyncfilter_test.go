package core

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"github.com/asyncfl/asyncfilter/internal/fl"
	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/stats"
	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// makeBatch builds an arrival batch with benign updates scattered around a
// per-staleness center and malicious updates far from every center.
// Returns the updates and the ground-truth malicious flags. Groups are
// emitted in ascending staleness order so the same seed always yields the
// same batch (the neutrality tests call this twice and diff the results).
func makeBatch(seed int64, benignPerGroup map[int]int, malicious int, spread float64) ([]*fl.Update, []bool) {
	r := randx.New(seed)
	const dim = 12
	centers := map[int][]float64{}
	var updates []*fl.Update
	var truth []bool
	id := 0
	groups := make([]int, 0, len(benignPerGroup))
	for staleness := range benignPerGroup {
		groups = append(groups, staleness)
	}
	sort.Ints(groups)
	for _, staleness := range groups {
		count := benignPerGroup[staleness]
		c, ok := centers[staleness]
		if !ok {
			c = randx.NormalVector(r, dim, 0, 3)
			centers[staleness] = c
		}
		for i := 0; i < count; i++ {
			delta := vecmath.Clone(c)
			vecmath.Add(delta, delta, randx.NormalVector(r, dim, 0, spread))
			updates = append(updates, &fl.Update{ClientID: id, Staleness: staleness, Delta: delta, NumSamples: 10})
			truth = append(truth, false)
			id++
		}
	}
	for i := 0; i < malicious; i++ {
		// Poison: reversed group-0 center, far from every group estimate.
		c := centers[0]
		delta := vecmath.Scaled(-3, c)
		vecmath.Add(delta, delta, randx.NormalVector(r, dim, 0, spread))
		updates = append(updates, &fl.Update{ClientID: id, Staleness: 0, Delta: delta, NumSamples: 10})
		truth = append(truth, true)
		id++
	}
	return updates, truth
}

func mustNew(t *testing.T, cfg Config) *AsyncFilter {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"k too small", func(c *Config) { c.K = 1 }},
		{"bad policy", func(c *Config) { c.MiddlePolicy = fl.Decision(99) }},
		{"bad estimator", func(c *Config) { c.Estimator = "kalman" }},
		{"ewma no alpha", func(c *Config) { c.Estimator = EstimatorEWMA; c.EWMAAlpha = 0 }},
		{"bad normalization", func(c *Config) { c.Normalization = "softmax" }},
		{"negative minbatch", func(c *Config) { c.MinBatch = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("invalid config accepted")
			}
		})
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	f := mustNew(t, cfg)
	if f.Name() != "asyncfilter" {
		t.Errorf("Name = %q", f.Name())
	}
	cfg.K = 2
	if mustNew(t, cfg).Name() != "asyncfilter-2means" {
		t.Error("2-means name wrong")
	}
}

func TestRejectsObviousPoison(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates, truth := makeBatch(1, map[int]int{0: 20, 1: 15}, 8, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rejectedMalicious, rejectedBenign int
	for i, d := range res.Decisions {
		if d == fl.Reject {
			if truth[i] {
				rejectedMalicious++
			} else {
				rejectedBenign++
			}
		}
	}
	if rejectedMalicious < 6 {
		t.Errorf("rejected %d/8 malicious, want >= 6", rejectedMalicious)
	}
	if rejectedBenign > 3 {
		t.Errorf("rejected %d benign updates", rejectedBenign)
	}
}

func TestMaliciousScoresHigher(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates, truth := makeBatch(2, map[int]int{0: 25}, 5, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	var benignMax, maliciousMin float64
	maliciousMin = 2
	for i, s := range res.Scores {
		if truth[i] {
			if s < maliciousMin {
				maliciousMin = s
			}
		} else if s > benignMax {
			benignMax = s
		}
	}
	if maliciousMin <= benignMax {
		t.Errorf("malicious min score %v <= benign max %v", maliciousMin, benignMax)
	}
}

func TestAcceptsAllWhenClean(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates, _ := makeBatch(3, map[int]int{0: 30}, 0, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, d := range res.Decisions {
		if d == fl.Reject {
			rejected++
		}
	}
	// Clean homogeneous batches still produce 3 clusters; the filter may
	// trim a few outliers, but must keep the vast majority.
	if rejected > len(updates)/4 {
		t.Errorf("rejected %d/%d clean updates", rejected, len(updates))
	}
}

func TestSmallBatchAcceptedWholesale(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates, _ := makeBatch(4, map[int]int{0: 3}, 1, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Decisions {
		if d != fl.Accept {
			t.Errorf("decision[%d] = %v, want accept for sub-MinBatch batch", i, d)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	res, err := f.Filter(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != 0 {
		t.Error("empty batch produced decisions")
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	if _, err := f.Filter([]*fl.Update{{Delta: []float64{1, 2}}, {Delta: []float64{1}}}, 1); err == nil {
		t.Error("mixed dimensions accepted")
	}
}

func TestIdenticalUpdatesAllAccepted(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates := make([]*fl.Update, 10)
	for i := range updates {
		updates[i] = &fl.Update{ClientID: i, Delta: []float64{1, 2, 3}, NumSamples: 1}
	}
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Decisions {
		if d != fl.Accept {
			t.Errorf("identical updates: decision[%d] = %v", i, d)
		}
	}
}

func TestMiddlePolicyVariants(t *testing.T) {
	for _, policy := range []fl.Decision{fl.Accept, fl.Defer, fl.Reject} {
		cfg := DefaultConfig()
		cfg.MiddlePolicy = policy
		f := mustNew(t, cfg)
		// Three distinct score bands built from mean-zero offsets of three
		// very different magnitudes, so the group moving average stays at
		// the shared center and the bands stay separated.
		r := randx.New(9)
		center := randx.NormalVector(r, 8, 0, 3)
		var updates []*fl.Update
		for i := 0; i < 15; i++ {
			d := vecmath.Clone(center)
			vecmath.Add(d, d, randx.NormalVector(r, 8, 0, 0.05))
			updates = append(updates, &fl.Update{ClientID: i, Delta: d, NumSamples: 1})
		}
		for i := 0; i < 5; i++ {
			d := vecmath.Clone(center)
			vecmath.Add(d, d, randx.NormalVector(r, 8, 0, 1.0))
			updates = append(updates, &fl.Update{ClientID: 100 + i, Delta: d, NumSamples: 1})
		}
		for i := 0; i < 4; i++ {
			d := vecmath.Clone(center)
			vecmath.Add(d, d, randx.NormalVector(r, 8, 0, 6.0))
			updates = append(updates, &fl.Update{ClientID: 200 + i, Delta: d, NumSamples: 1})
		}
		res, err := f.Filter(updates, 1)
		if err != nil {
			t.Fatal(err)
		}
		sawPolicy := false
		for _, d := range res.Decisions {
			if d == policy {
				sawPolicy = true
			}
		}
		if !sawPolicy {
			t.Errorf("policy %v: no update received the middle decision (decisions %v)", policy, res.Decisions)
		}
	}
}

func TestStalenessGroupingSeparatesVersions(t *testing.T) {
	// Benign updates from two model versions form two distant blobs, and
	// poison hides in the direction of the other version's blob. With
	// staleness grouping the filter sees the poison as far from its own
	// group's estimate and rejects it while keeping both benign blobs;
	// without grouping the version drift dominates the geometry and the
	// poison is indistinguishable.
	build := func() ([]*fl.Update, []bool) {
		r := randx.New(10)
		c0 := randx.NormalVector(r, 10, 0, 5)
		c1 := vecmath.Scaled(-1, c0) // maximally drifted version center
		var updates []*fl.Update
		var truth []bool
		for i := 0; i < 15; i++ {
			d := vecmath.Clone(c0)
			vecmath.Add(d, d, randx.NormalVector(r, 10, 0, 0.2))
			updates = append(updates, &fl.Update{ClientID: i, Staleness: 0, Delta: d, NumSamples: 1})
			truth = append(truth, false)
		}
		for i := 0; i < 15; i++ {
			d := vecmath.Clone(c1)
			vecmath.Add(d, d, randx.NormalVector(r, 10, 0, 0.2))
			updates = append(updates, &fl.Update{ClientID: 50 + i, Staleness: 3, Delta: d, NumSamples: 1})
			truth = append(truth, false)
		}
		for i := 0; i < 5; i++ { // poison in group 0 pointing at group 1's blob
			d := vecmath.Scaled(-1.5, c0)
			vecmath.Add(d, d, randx.NormalVector(r, 10, 0, 0.2))
			updates = append(updates, &fl.Update{ClientID: 90 + i, Staleness: 0, Delta: d, NumSamples: 1})
			truth = append(truth, true)
		}
		return updates, truth
	}

	run := func(grouping bool) (caughtMalicious, rejectedBenign int) {
		cfg := DefaultConfig()
		cfg.GroupByStaleness = grouping
		cfg.RejectCooldown = -1 // same clients appear in both batches
		f := mustNew(t, cfg)
		// Prime the per-group estimators with one batch (scoring uses the
		// pre-batch estimator state, so a cold filter has no group
		// estimates yet), then judge a second batch.
		prime, _ := build()
		if _, err := f.Filter(prime, 3); err != nil {
			t.Fatal(err)
		}
		updates, truth := build()
		res, err := f.Filter(updates, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Decisions {
			if d == fl.Accept {
				continue
			}
			if truth[i] {
				caughtMalicious++
			} else {
				rejectedBenign++
			}
		}
		return caughtMalicious, rejectedBenign
	}

	caught, benignHit := run(true)
	if caught < 4 {
		t.Errorf("grouping caught %d/5 malicious, want >= 4", caught)
	}
	if benignHit > 3 {
		t.Errorf("grouping flagged %d/30 benign updates", benignHit)
	}
	caughtUngrouped, _ := run(false)
	if caughtUngrouped > caught {
		t.Errorf("ungrouped filter caught %d malicious > grouped %d; grouping should not hurt", caughtUngrouped, caught)
	}
}

func TestMovingAverageAccumulatesAcrossRounds(t *testing.T) {
	f := mustNew(t, DefaultConfig())
	updates, _ := makeBatch(11, map[int]int{0: 10, 2: 10}, 0, 0.3)
	if _, err := f.Filter(updates, 1); err != nil {
		t.Fatal(err)
	}
	if f.GroupCount() != 2 {
		t.Errorf("GroupCount = %d, want 2", f.GroupCount())
	}
	if f.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", f.Rounds())
	}
	updates2, _ := makeBatch(12, map[int]int{1: 10}, 0, 0.3)
	if _, err := f.Filter(updates2, 2); err != nil {
		t.Fatal(err)
	}
	if f.GroupCount() != 3 {
		t.Errorf("GroupCount after second round = %d, want 3", f.GroupCount())
	}
}

func TestBatchEstimatorHasNoMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Estimator = EstimatorBatch
	f := mustNew(t, cfg)
	updates, _ := makeBatch(13, map[int]int{0: 12}, 0, 0.3)
	if _, err := f.Filter(updates, 1); err != nil {
		t.Fatal(err)
	}
	if f.GroupCount() != 0 {
		t.Errorf("batch estimator persisted %d groups", f.GroupCount())
	}
}

func TestEWMAEstimator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Estimator = EstimatorEWMA
	cfg.EWMAAlpha = 0.3
	f := mustNew(t, cfg)
	updates, truth := makeBatch(14, map[int]int{0: 20}, 6, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for i, d := range res.Decisions {
		if d == fl.Reject && truth[i] {
			rejected++
		}
	}
	if rejected < 4 {
		t.Errorf("EWMA estimator rejected %d/6 malicious", rejected)
	}
}

func TestNormalizeGroupsMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Normalization = NormalizeGroups
	f := mustNew(t, cfg)
	updates, truth := makeBatch(15, map[int]int{0: 18, 1: 18}, 4, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The literal Eq. 7 normalization (per-client denominator across all
	// group estimates) discriminates more weakly than batch normalization
	// once the group estimate is contaminated, so only require that the
	// malicious cohort scores above the benign one on average.
	var benign, malicious stats.Welford
	for i, s := range res.Scores {
		if truth[i] {
			malicious.Add(s)
		} else {
			benign.Add(s)
		}
		if s < 0 || s > 1.0000001 {
			t.Errorf("groups-normalized score %v outside [0,1]", s)
		}
	}
	if malicious.Mean() <= benign.Mean() {
		t.Errorf("malicious mean score %v <= benign mean %v", malicious.Mean(), benign.Mean())
	}
}

func TestScoresSumOfSquaresIsOneUnderBatchNormalization(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Normalization = NormalizeBatch
	f := mustNew(t, cfg)
	updates, _ := makeBatch(16, map[int]int{0: 20}, 5, 0.3)
	res, err := f.Filter(updates, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ss float64
	for _, s := range res.Scores {
		ss += s * s
	}
	if ss < 0.999 || ss > 1.001 {
		t.Errorf("sum of squared scores = %v, want ~1", ss)
	}
	if got := f.LastScores(); len(got) != len(updates) {
		t.Errorf("LastScores length = %d", len(got))
	}
}

func Test2MeansRejectsMoreNonIID(t *testing.T) {
	// Non-IID benign updates form a wide ring around the center. 3-means
	// shunts moderate deviation into the middle (tolerated) cluster;
	// 2-means must label every point accept-or-reject and so rejects more
	// honest updates. This is the mechanism behind the paper's Figure 7.
	build := func() []*fl.Update {
		r := randx.New(17)
		center := randx.NormalVector(r, 10, 0, 3)
		var updates []*fl.Update
		for i := 0; i < 20; i++ {
			d := vecmath.Clone(center)
			vecmath.Add(d, d, randx.NormalVector(r, 10, 0, 0.15))
			updates = append(updates, &fl.Update{ClientID: i, Delta: d, NumSamples: 1})
		}
		for i := 0; i < 10; i++ { // honest non-IID: noticeably dispersed
			d := vecmath.Clone(center)
			vecmath.Add(d, d, randx.NormalVector(r, 10, 0, 1.2))
			updates = append(updates, &fl.Update{ClientID: 100 + i, Delta: d, NumSamples: 1})
		}
		return updates
	}
	countNonAccepted := func(k int) int {
		cfg := DefaultConfig()
		cfg.K = k
		cfg.MiddlePolicy = fl.Accept // count only hard rejections
		f := mustNew(t, cfg)
		res, err := f.Filter(build(), 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range res.Decisions {
			if d == fl.Reject {
				n++
			}
		}
		return n
	}
	r3 := countNonAccepted(3)
	r2 := countNonAccepted(2)
	if r3 > r2 {
		t.Errorf("3-means rejected %d, 2-means rejected %d; want 3-means <= 2-means", r3, r2)
	}
	if r2 == 0 {
		t.Log("2-means rejected nothing; scenario may be too easy, but tolerance ordering still holds")
	}
}

// An update whose own staleness group has no history is scored against
// the nearest group that has one. When the groups one below and one
// above are equally near, the lower staleness key is the reference, and
// map iteration order must not decide it: many fresh filters fed the
// same input must reach the same verdicts and the same state.
func TestReferenceGroupTieIsDeterministic(t *testing.T) {
	const dim = 4
	vec := func(v, jitter float64) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = v + jitter*float64(i+1)
		}
		return d
	}
	run := func() ([]fl.Decision, []byte) {
		f, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Below MinBatch, so accepted wholesale: groups 0 and 2 get two
		// observations each, with opposite means.
		history := []*fl.Update{
			{ClientID: 1, Staleness: 0, Delta: vec(1, 0.01), NumSamples: 1},
			{ClientID: 2, Staleness: 0, Delta: vec(1, -0.01), NumSamples: 1},
			{ClientID: 3, Staleness: 2, Delta: vec(-1, 0.01), NumSamples: 1},
			{ClientID: 4, Staleness: 2, Delta: vec(-1, -0.01), NumSamples: 1},
		}
		if _, err := f.Filter(history, 1); err != nil {
			t.Fatal(err)
		}
		// Group 1 has no history: groups 0 and 2 tie as its reference.
		var probe []*fl.Update
		for i := 0; i < 8; i++ {
			v := 1.0
			if i >= 6 {
				v = -1
			}
			probe = append(probe, &fl.Update{ClientID: 10 + i, Staleness: 1, Delta: vec(v, 0.002*float64(i%3+1)), NumSamples: 1})
		}
		res, err := f.Filter(probe, 2)
		if err != nil {
			t.Fatal(err)
		}
		state, err := f.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return res.Decisions, state
	}

	wantDec, wantState := run()
	// Group 0 (mean +1) is the reference, so the two updates near -1 are
	// the outliers.
	for i, d := range wantDec {
		if want := i < 6; (d == fl.Accept) != want {
			t.Fatalf("decisions = %v, want the six +1 updates accepted and the two -1 updates not", wantDec)
		}
	}
	for trial := 0; trial < 64; trial++ {
		dec, state := run()
		if !reflect.DeepEqual(dec, wantDec) {
			t.Fatalf("trial %d: decisions %v, first run %v", trial, dec, wantDec)
		}
		if !bytes.Equal(state, wantState) {
			t.Fatalf("trial %d: filter state differs from the first run", trial)
		}
	}
}
