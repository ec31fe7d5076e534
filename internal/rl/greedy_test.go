package rl

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanGreedy is the full-scan greedy lookup every row's best replaces:
// the first strict maximum of q, and its value.
func scanGreedy(q []float64) (int, float64) {
	best, bestA := q[0], 0
	for a, v := range q {
		if v > best {
			best, bestA = v, a
		}
	}
	return bestA, best
}

// scanAlphaMax is the per-action loop AlphaMax replaces.
func scanAlphaMax(l *Learner, s, otherMinSum int) float64 {
	worst := 0.0
	for a := 0; a < l.cfg.Actions; a++ {
		if v := l.Alpha(s, a, otherMinSum); v > worst {
			worst = v
		}
	}
	return worst
}

// checkGreedy requires every row of sn to hold the greedy action a full
// scan finds, and, when l is not nil, the learner's ArgMax and MaxQ to
// return that action and the bits of its value.
func checkGreedy(t *testing.T, what string, sn Snapshot, l *Learner) {
	t.Helper()
	for s, r := range sn.rows {
		a, v := scanGreedy(r.q)
		if r.best != a {
			t.Fatalf("%s: state %d keeps best %d, a scan of %v finds %d", what, s, r.best, r.q, a)
		}
		if l == nil {
			continue
		}
		if got := l.ArgMax(s); got != a {
			t.Fatalf("%s: ArgMax(%d) = %d, scan %d", what, s, got, a)
		}
		if got := l.MaxQ(s); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("%s: MaxQ(%d) = %v, scan %v", what, s, got, v)
		}
	}
}

// TestGreedyRowsMatchFullScan drives random sequences of Update, Q
// writes, Snapshot, Seed, Merge, SubtractCounts, Clone, JSON round trips
// of learners and snapshots, LearnerFrom and fresh learners, and requires
// after every step that every row any learner or snapshot reaches keeps
// the greedy action a full scan finds. Q writes draw from a few values,
// +0 and -0 among them, so rows hold ties and repeated maxima.
func TestGreedyRowsMatchFullScan(t *testing.T) {
	cfg := DefaultConfig(7, 4)
	values := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1, 1}
	roundTrip := func(sn Snapshot) Snapshot {
		data, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		return back
	}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ls [2]*Learner
		for i := range ls {
			var err error
			if ls[i], err = NewLearner(cfg); err != nil {
				t.Fatal(err)
			}
		}
		var sn [3]Snapshot
		for j := range sn {
			sn[j] = ls[0].Snapshot()
		}
		for step := 0; step < 400; step++ {
			i, j, k := rng.Intn(2), rng.Intn(3), rng.Intn(3)
			var err error
			switch op := rng.Intn(12); {
			case op < 3: // rewards from the same few values
				ls[i].Update(rng.Intn(4), rng.Intn(4), rng.Intn(7), values[rng.Intn(len(values))], rng.Intn(3))
			case op < 6:
				ls[i].SetQ(rng.Intn(5), rng.Intn(4), values[rng.Intn(len(values))])
			case op == 6:
				sn[j] = ls[i].Snapshot()
			case op == 7:
				err = ls[i].Seed(sn[j])
			case op == 8 && j != k:
				err = sn[j].Merge(sn[k])
			case op == 8:
				sn[j] = sn[k].Clone()
			case op == 9:
				cur := ls[i].Snapshot()
				if cur.SubtractCounts(sn[j]) == nil {
					sn[k] = cur
				}
			case op == 10:
				sn[j] = roundTrip(sn[k])
				ls[i], err = LearnerFrom(roundTrip(ls[i].Snapshot()))
			case rng.Intn(2) == 0:
				ls[i], err = LearnerFrom(sn[j])
			default:
				ls[i], err = NewLearner(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			for x, l := range ls {
				checkGreedy(t, fmt.Sprintf("seed %d step %d learner %d", seed, step, x), l.view(), l)
			}
			for x := range sn {
				checkGreedy(t, fmt.Sprintf("seed %d step %d snapshot %d", seed, step, x), sn[x], nil)
			}
		}
	}
}

// TestGreedyRowKeepsNaN: a NaN never beats the running maximum, and one at
// action 0 is never beaten, exactly as a full scan finds.
func TestGreedyRowKeepsNaN(t *testing.T) {
	nan := math.NaN()
	for _, q := range [][]float64{{nan, 1, 2}, {1, nan, 2}, {2, nan, 1}, {math.Copysign(0, -1), 0, nan}} {
		l, err := NewLearner(DefaultConfig(1, len(q)))
		if err != nil {
			t.Fatal(err)
		}
		for a, v := range q {
			l.SetQ(0, a, v)
		}
		checkGreedy(t, fmt.Sprint(q), l.view(), l)
	}
}

// TestAlphaMaxMatchesPerActionLoop: AlphaMax, which evaluates eq. (3) at
// the least-visited action only, returns the bits the per-action loop
// does, for counts from 0 to MaxInt, with and without the coupling term
// (and with a beta above 1, where beta/Num(s,a) exceeds the unvisited
// rate), and for every otherMinSum from negative to MaxInt.
func TestAlphaMaxMatchesPerActionLoop(t *testing.T) {
	counts := []int{0, 1, 2, 7, 1 << 40, math.MaxInt - 1, math.MaxInt}
	others := []int{-5, 0, 1, 3, 1 << 53, math.MaxInt - 1, math.MaxInt}
	const actions = 3
	// Every state is one combination of the counts over the actions.
	states := len(counts) * len(counts) * len(counts)
	q := make([]float64, states*actions)
	visits := make([]int, 0, states*actions)
	for _, x := range counts {
		for _, y := range counts {
			for _, z := range counts {
				visits = append(visits, x, y, z)
			}
		}
	}
	for _, betas := range [][2]float64{{0.3, 0}, {0.3, 0.2}, {3, 0.2}, {3, 1e19}, {0.3, 1e300}, {5e-324, 0}} {
		cfg := DefaultConfig(states, actions)
		cfg.Beta, cfg.BetaPrime = betas[0], betas[1]
		sn, err := NewSnapshot(cfg, Tables{Q: q, VisitsSA: visits, VisitsAction: make([]int, actions)})
		if err != nil {
			t.Fatal(err)
		}
		l, err := LearnerFrom(sn)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < states; s++ {
			for _, m := range others {
				got, want := l.AlphaMax(s, m), scanAlphaMax(l, s, m)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("beta %v: AlphaMax(state %d, counts %v, other %d) = %v, loop %v",
						betas, s, visits[s*actions:(s+1)*actions], m, got, want)
				}
			}
		}
	}
}
