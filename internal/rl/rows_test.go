package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refModel is a map-based transition model, kept here only as the
// oracle: refModel[p][next] counts s --a--> next for pair
// p = s*actions + a.
type refModel []map[int]int

func (r refModel) observe(p, next int) {
	if r[p] == nil {
		r[p] = map[int]int{}
	}
	r[p][next]++
}

// add folds sign*o into r the way the old map code did, entry by entry,
// deleting entries that reach zero and refusing a negative residual.
func (r refModel) add(o refModel, sign int) error {
	for p, m := range o {
		for next, n := range m {
			c := r[p][next] + sign*n
			switch {
			case c < 0:
				return fmt.Errorf("pair %d successor %d below base", p, next)
			case c == 0:
				delete(r[p], next)
			default:
				if r[p] == nil {
					r[p] = map[int]int{}
				}
				r[p][next] = c
			}
		}
	}
	return nil
}

func (r refModel) clone() refModel {
	cp := make(refModel, len(r))
	for p, m := range r {
		for next, n := range m {
			if cp[p] == nil {
				cp[p] = map[int]int{}
			}
			cp[p][next] = n
		}
	}
	return cp
}

// keys returns pair p's successors in ascending order.
func (r refModel) keys(p int) []int {
	var ks []int
	for next := range r[p] {
		ks = append(ks, next)
	}
	sort.Ints(ks)
	return ks
}

// tuples lists the model the way the checkpoint form writes it.
func (r refModel) tuples(actions int) [][4]int {
	var ts [][4]int
	for p := range r {
		for _, next := range r.keys(p) {
			ts = append(ts, [4]int{p / actions, p % actions, next, r[p][next]})
		}
	}
	return ts
}

// denseRef is a dense learner layout — row-major Q and visit tables,
// per-action totals and the map-based transition model, every copy a
// deep one — kept only as the oracle. Its update and folds repeat the
// learner's arithmetic operation for operation.
type denseRef struct {
	cfg   Config
	q     []float64
	n     []int
	per   []int
	trans refModel
}

func newDenseRef(cfg Config) *denseRef {
	pairs := cfg.States * cfg.Actions
	return &denseRef{cfg: cfg, q: make([]float64, pairs), n: make([]int, pairs),
		per: make([]int, cfg.Actions), trans: make(refModel, pairs)}
}

func (d *denseRef) clone() *denseRef {
	return &denseRef{cfg: d.cfg, q: slices.Clone(d.q), n: slices.Clone(d.n),
		per: slices.Clone(d.per), trans: d.trans.clone()}
}

func (d *denseRef) update(s, a, next int, reward float64, otherMinSum int) {
	i := s*d.cfg.Actions + a
	d.n[i]++
	d.per[a]++
	d.trans.observe(i, next)
	alpha := math.Min(1, d.cfg.Beta/float64(d.n[i])+d.cfg.BetaPrime/float64(1+otherMinSum))
	best := d.q[next*d.cfg.Actions]
	for _, v := range d.q[next*d.cfg.Actions+1 : (next+1)*d.cfg.Actions] {
		best = max(best, v)
	}
	d.q[i] = d.q[i] + alpha*(reward+d.cfg.Gamma*best-d.q[i])
}

// fold is the dense count-weighted fold of src into d.
func (d *denseRef) fold(src *denseRef) {
	for i, nd := range d.n {
		switch ns := src.n[i]; {
		case ns == 0:
		case nd == 0:
			d.q[i] = src.q[i]
		default:
			d.q[i] = (float64(nd)*d.q[i] + float64(ns)*src.q[i]) / float64(nd+ns)
		}
		d.n[i] += src.n[i]
	}
	for a := range d.per {
		d.per[a] += src.per[a]
	}
	_ = d.trans.add(src.trans, 1)
}

// subtract removes base's counts from a copy of d, or errors on a
// negative residual.
func (d *denseRef) subtract(base *denseRef) (*denseRef, error) {
	out := d.clone()
	for i := range out.n {
		if out.n[i] -= base.n[i]; out.n[i] < 0 {
			return nil, fmt.Errorf("pair %d below base", i)
		}
	}
	for a := range out.per {
		if out.per[a] -= base.per[a]; out.per[a] < 0 {
			return nil, fmt.Errorf("action %d below base", a)
		}
	}
	return out, out.trans.add(base.trans, -1)
}

// wire marshals the reference in the checkpoint form.
func (d *denseRef) wire(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Version      int       `json:"format_version"`
		Config       Config    `json:"config"`
		Q            []float64 `json:"q"`
		VisitsSA     []int     `json:"visits_sa"`
		VisitsAction []int     `json:"visits_action"`
		Transitions  [][4]int  `json:"transitions"`
	}{1, d.cfg, d.q, d.n, d.per, d.trans.tuples(d.cfg.Actions)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkRows validates every row and compares its successor runs with the
// reference: the same successors in the same ascending order with the
// same counts.
func checkRows(t *testing.T, what string, sn Snapshot, r refModel) {
	t.Helper()
	if err := sn.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	actions := sn.Config.Actions
	for p := range r {
		var want []Succ
		for _, next := range r.keys(p) {
			want = append(want, Succ{int32(next), r[p][next]})
		}
		if got := sn.rows[p/actions].run(p % actions); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pair %d successors %v, reference %v", what, p, got, want)
		}
	}
}

// checkSame requires sn to marshal to the reference's bytes.
func checkSame(t *testing.T, what string, sn Snapshot, d *denseRef) {
	t.Helper()
	checkRows(t, what, sn, d.trans)
	got, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	if want := d.wire(t); !bytes.Equal(got, want) {
		t.Fatalf("%s: bytes differ from the dense reference:\n got %s\nwant %s", what, got, want)
	}
}

// checkLearner compares a learner's tables, read through view so the
// check leaves ownership alone, and its probabilities with the reference.
func checkLearner(t *testing.T, what string, l *Learner, d *denseRef) {
	t.Helper()
	checkSame(t, what, l.view(), d)
	cfg := l.Config()
	for s := 0; s < cfg.States; s++ {
		for a := 0; a < cfg.Actions; a++ {
			p, total := s*cfg.Actions+a, 0
			for _, n := range d.trans[p] {
				total += n
			}
			if _, got := l.Successors(s, a); got != total {
				t.Fatalf("%s: total of (%d,%d) = %d, reference %d", what, s, a, got, total)
			}
			for next := 0; next < cfg.States; next++ {
				want := 0.0
				if total > 0 {
					want = float64(d.trans[p][next]) / float64(total)
				}
				if got := prob(l, s, a, next); got != want {
					t.Fatalf("%s: P(%d -%d-> %d) = %v, reference %v", what, s, a, next, got, want)
				}
			}
		}
	}
}

// TestModelMatchesMapReference drives random sequences of Update, Q
// writes (-0 among them), Snapshot, Seed, Merge, SubtractCounts, Clone,
// LearnerFrom, a checkpoint round trip and fresh learners through the
// row layout and through the dense reference, and requires the two to
// agree after every step: the checkpoint bytes of every learner and
// snapshot, every successor run and every probability. Rows are shared and copied on
// write throughout, so any write that reached a row another side holds
// shows up as a difference. 13 states put two-digit successors beside
// one-digit ones.
func TestModelMatchesMapReference(t *testing.T) {
	cfg := DefaultConfig(13, 3)
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ls [2]*Learner
		var lr [2]*denseRef
		var sn [3]Snapshot
		var sr [3]*denseRef
		for i := range ls {
			var err error
			if ls[i], err = NewLearner(cfg); err != nil {
				t.Fatal(err)
			}
			lr[i] = newDenseRef(cfg)
		}
		for j := range sn {
			sn[j], sr[j] = ls[0].Snapshot(), newDenseRef(cfg)
		}
		for step := 0; step < 300; step++ {
			i, j, k := rng.Intn(2), rng.Intn(3), rng.Intn(3)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(13); {
			case op < 4: // update, concentrated on a few states
				s, a, next, r, m := rng.Intn(5), rng.Intn(3), rng.Intn(13), 2*rng.Float64()-1, rng.Intn(4)
				ls[i].Update(s, a, next, r, m)
				lr[i].update(s, a, next, r, m)
			case op == 4:
				sn[j], sr[j] = ls[i].Snapshot(), lr[i].clone()
			case op == 5:
				if err := ls[i].Seed(sn[j]); err != nil {
					t.Fatal(err)
				}
				lr[i].fold(sr[j])
			case op == 6 && j != k:
				if err := sn[j].Merge(sn[k]); err != nil {
					t.Fatal(err)
				}
				sr[j].fold(sr[k])
			case op == 7:
				cur := ls[i].Snapshot()
				err := cur.SubtractCounts(sn[j])
				ref, refErr := lr[i].subtract(sr[j])
				if (err != nil) != (refErr != nil) {
					t.Fatalf("%s: SubtractCounts err = %v, reference err = %v", what, err, refErr)
				}
				if err == nil {
					sn[k], sr[k] = cur, ref
				}
			case op == 8:
				sn[j], sr[j] = sn[k].Clone(), sr[k].clone()
			case op == 9:
				data, err := json.Marshal(ls[i].Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				var st Snapshot
				if err := json.Unmarshal(data, &st); err != nil {
					t.Fatal(err)
				}
				if ls[i], err = LearnerFrom(st); err != nil {
					t.Fatal(err)
				}
			case op == 10:
				var err error
				if ls[i], err = LearnerFrom(sn[j]); err != nil {
					t.Fatal(err)
				}
				lr[i] = sr[j].clone()
			case op == 11: // a Q write, sometimes -0 on a pair never visited
				s, a, v := rng.Intn(6), rng.Intn(3), 2*rng.Float64()-1
				if rng.Intn(2) == 0 {
					v = negZero
				}
				ls[i].SetQ(s, a, v)
				lr[i].q[s*cfg.Actions+a] = v
			case op == 12: // a fresh learner, whose rows are blank
				var err error
				if ls[i], err = NewLearner(cfg); err != nil {
					t.Fatal(err)
				}
				lr[i] = newDenseRef(cfg)
			}
			for x := range ls {
				checkLearner(t, fmt.Sprintf("%s learner %d", what, x), ls[x], lr[x])
			}
			for x := range sn {
				checkSame(t, fmt.Sprintf("%s snapshot %d", what, x), sn[x], sr[x])
			}
		}
	}
}

// deepCopy returns a copy of sn that shares no memory with it.
func deepCopy(sn Snapshot) Snapshot {
	cp := sn.Clone()
	for s, r := range cp.rows {
		cp.rows[s] = r.clone()
	}
	return cp
}

// TestSnapshotCopiesStayIsolated: every operation that hands rows from
// one side to another — Snapshot, Clone, LearnerFrom, Seed, Merge and
// SubtractCounts — leaves the two sides independent although they share
// rows: a write to every row of either side leaves the other DeepEqual
// to a deep copy taken before.
func TestSnapshotCopiesStayIsolated(t *testing.T) {
	const states = 6
	// full visits every state, so merging it writes every row of a
	// snapshot; touch writes every row of a learner.
	full := trainedSmallLearner(t, 9, 300).Snapshot()
	for s := 0; s < states; s++ {
		if full.rows[s].idle() {
			t.Fatalf("state %d unvisited; the test needs every row written", s)
		}
	}
	touch := func(l *Learner) {
		for s := 0; s < states; s++ {
			l.Update(s, s%3, (s+1)%states, 0.75, 1)
		}
	}
	// isolated writes to every row of each side in turn and checks the
	// other against its deep copy.
	type side struct {
		name  string
		view  func() Snapshot
		write func()
	}
	learner := func(name string, l *Learner) side {
		return side{name, func() Snapshot { return deepCopy(l.view()) }, func() { touch(l) }}
	}
	snapshot := func(name string, sn *Snapshot) side {
		return side{name, func() Snapshot { return deepCopy(*sn) }, func() {
			if err := sn.Merge(full); err != nil {
				t.Fatal(err)
			}
		}}
	}
	isolated := func(op string, x, y side) {
		t.Helper()
		for _, pair := range [][2]side{{x, y}, {y, x}} {
			w, other := pair[0], pair[1]
			before := other.view()
			w.write()
			if after := other.view(); !reflect.DeepEqual(after, before) {
				t.Errorf("%s: writing every row of the %s changed the %s", op, w.name, other.name)
			}
		}
	}

	l := trainedSmallLearner(t, 3, 200)
	sn := l.Snapshot()
	isolated("Snapshot", learner("learner", l), snapshot("snapshot", &sn))

	sn = trainedSmallLearner(t, 4, 200).Snapshot()
	cp := sn.Clone()
	isolated("Clone", snapshot("source", &sn), snapshot("clone", &cp))

	sn = trainedSmallLearner(t, 5, 200).Snapshot()
	rebuilt, err := LearnerFrom(sn)
	if err != nil {
		t.Fatal(err)
	}
	isolated("LearnerFrom", snapshot("snapshot", &sn), learner("rebuilt learner", rebuilt))

	sn = trainedSmallLearner(t, 6, 200).Snapshot()
	warm, err := NewLearner(sn.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Seed(sn); err != nil {
		t.Fatal(err)
	}
	isolated("Seed", snapshot("seed", &sn), learner("seeded learner", warm))

	into, from := sn.Clone(), trainedSmallLearner(t, 7, 200).Snapshot()
	blank, err := NewLearner(sn.Config)
	if err != nil {
		t.Fatal(err)
	}
	adopted := blank.Snapshot() // blank rows: Merge adopts from's rows
	if err := into.Merge(from); err != nil {
		t.Fatal(err)
	}
	if err := adopted.Merge(from); err != nil {
		t.Fatal(err)
	}
	isolated("Merge", snapshot("merged", &into), snapshot("merged-in", &from))
	isolated("Merge into blank rows", snapshot("merged", &adopted), snapshot("merged-in", &from))

	base := trainedSmallLearner(t, 8, 200).Snapshot()
	grown, err := LearnerFrom(base)
	if err != nil {
		t.Fatal(err)
	}
	grown.Update(2, 1, 4, 0.5, 0)
	delta := grown.Snapshot()
	if err := delta.SubtractCounts(base); err != nil {
		t.Fatal(err)
	}
	isolated("SubtractCounts", snapshot("delta", &delta), snapshot("base", &base))
	isolated("SubtractCounts", snapshot("delta", &delta), learner("learner", grown))
}

// TestWarmLearnerCopiesOnlyWrittenRows counts row copies exactly along a
// session's life under knowledge reuse, at the paper's 180 states: a
// learner seeded from a snapshot (core.Controller.Seed's step per agent)
// shares every row; writing to k distinct states copies exactly k rows;
// a checkpoint snapshot copies none and hands the rows back, so the next
// frames copy each state they write to once more; and the harvest — the
// departing snapshot less the seed, folded into the store — makes fresh
// rows only for the states the session wrote to.
func TestWarmLearnerCopiesOnlyWrittenRows(t *testing.T) {
	cfg := DefaultConfig(180, 7)
	donor, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		donor.Update(rng.Intn(180), rng.Intn(7), rng.Intn(180), 2*rng.Float64()-1, rng.Intn(9))
	}
	seed := donor.Snapshot()
	l, err := NewLearner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seed(seed); err != nil {
		t.Fatal(err)
	}
	for s, r := range l.t.rows {
		if r != seed.rows[s] || r.idle() {
			t.Fatalf("seeded state %d does not share the seed's visited row", s)
		}
	}
	frames := func(states ...int) {
		for i := 0; i < 40; i++ {
			s := states[i%len(states)]
			l.Update(s, i%7, states[(i+1)%len(states)], 0.5, 3)
		}
	}
	check := func(when string, want int) {
		t.Helper()
		if l.t.copies != want {
			t.Fatalf("%s: %d rows copied, want %d", when, l.t.copies, want)
		}
	}
	check("after seeding", 0)
	first := []int{3, 17, 42, 99, 150}
	frames(first...)
	check("after frames on 5 states", 5)
	checkpoint := l.Snapshot()
	check("after a checkpoint", 5)
	frames(17, 42, 120)
	check("after frames on 3 states past the checkpoint", 8)

	for s, r := range checkpoint.rows {
		if shared, wrote := r == seed.rows[s], slices.Contains(first, s); shared == wrote {
			t.Errorf("checkpoint state %d: shares the seed's row = %v, written before = %v", s, shared, wrote)
		}
	}
	written := map[int]bool{3: true, 17: true, 42: true, 99: true, 150: true, 120: true}
	delta := l.Snapshot()
	if err := delta.SubtractCounts(seed); err != nil {
		t.Fatal(err)
	}
	store := seed.Clone()
	if err := store.Merge(delta); err != nil {
		t.Fatal(err)
	}
	changed := 0
	for s, r := range store.rows {
		if r != seed.rows[s] {
			changed++
			if !written[s] {
				t.Errorf("the store copied state %d, which the session never wrote", s)
			}
		}
	}
	if changed != len(written) {
		t.Errorf("the store made %d fresh rows, want %d", changed, len(written))
	}
}

// TestSnapshotValidateRejectsBadLayout: Validate refuses every way a
// row's successor runs can be malformed, and LearnerFrom refuses the same
// snapshots.
func TestSnapshotValidateRejectsBadLayout(t *testing.T) {
	base := func() Snapshot {
		l, err := NewLearner(DefaultConfig(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		l.ObserveTransition(0, 0, 1)
		l.ObserveTransition(0, 0, 2)
		l.ObserveTransition(0, 2, 0)
		return l.Snapshot() // state 0: off [0 2 2 3], succ [{1 1} {2 1} {0 1}]
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("well-formed rows rejected: %v", err)
	}
	cases := []struct {
		name, want string
		damage     func(r *row)
	}{
		{"offsets decrease", "not ascending", func(r *row) { r.off[2] = 1 }},
		{"offset past the successors", "not ascending", func(r *row) { r.off[1] = 4 }},
		{"first offset not zero", "do not frame", func(r *row) { r.off[0] = 1 }},
		{"last offset short of the successors", "do not frame", func(r *row) { r.off[3] = 2 }},
		{"missing pair", "table sizes", func(r *row) { r.off = r.off[:3] }},
		{"successors out of order", "out of order", func(r *row) { r.succ[0], r.succ[1] = r.succ[1], r.succ[0] }},
		{"successor repeated", "repeated", func(r *row) { r.succ[1].State = 1 }},
		{"successor out of range", "invalid", func(r *row) { r.succ[2].State = 3 }},
		{"negative successor", "invalid", func(r *row) { r.succ[0].State = -1 }},
		{"zero count", "invalid", func(r *row) { r.succ[2].Count = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sn := base()
			sn.rows[0] = sn.rows[0].clone()
			c.damage(sn.rows[0])
			err := sn.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, c.want)
			}
			if _, err := LearnerFrom(sn); err == nil {
				t.Fatal("LearnerFrom accepted the damaged rows")
			}
		})
	}
}

// TestLoadLearnerSumsUnsortedDuplicateTuples: the tuple form loads in any
// order and sums a repeated (state, action, next), exactly like the
// sorted, summed payload it saves back as.
func TestLoadLearnerSumsUnsortedDuplicateTuples(t *testing.T) {
	const head = `{"format_version":1,"config":{"States":3,"Actions":2,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[0,0,0,0,0,0],"visits_sa":[0,0,0,0,0,0],"visits_action":[0,0],"transitions":`
	messy, err := loadLearner(head + `[[2,1,0,2],[0,0,2,1],[0,1,1,1],[0,0,2,3],[0,0,0,1],[2,1,0,1]]}`)
	if err != nil {
		t.Fatal(err)
	}
	tidy, err := loadLearner(head + `[[0,0,0,1],[0,0,2,4],[0,1,1,1],[2,1,0,3]]}`)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := messy.view().Tables(), tidy.view().Tables(); !reflect.DeepEqual(got, want) {
		t.Fatalf("unsorted payload loaded %+v, sorted one %+v", got, want)
	}
	if a, b := saveLearner(t, messy), saveLearner(t, tidy); !bytes.Equal(a, b) {
		t.Fatalf("saved payloads differ:\n%s\n%s", a, b)
	}
	if got := prob(messy, 0, 0, 2); got != 0.8 {
		t.Fatalf("P(0,0,2) = %v, want 0.8", got)
	}
}
