package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refModel is the map-based transition model the CSR layout replaced,
// kept here only as the oracle: refModel[p][next] counts s --a--> next
// for pair p = s*actions + a.
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

// keys returns pair p's successors in ascending order, the order the old
// Successors sorted them into.
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

// checkModel compares a CSR model with the reference run by run: the
// same successors in the same ascending order with the same counts.
func checkModel(t *testing.T, what string, m Model, r refModel) {
	t.Helper()
	if err := m.validate(len(r), 13); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for p := range r {
		var want []Succ
		for _, next := range r.keys(p) {
			want = append(want, Succ{int32(next), r[p][next]})
		}
		if got := m.run(p); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pair %d successors %v, reference %v", what, p, got, want)
		}
	}
}

// checkLearner compares a learner's model, probabilities and Snapshot
// wire bytes with the reference.
func checkLearner(t *testing.T, what string, l *Learner, r refModel) {
	t.Helper()
	checkModel(t, what, l.Trans.m, r)
	cfg := l.Config()
	for s := 0; s < cfg.States; s++ {
		for a := 0; a < cfg.Actions; a++ {
			p, total := s*cfg.Actions+a, 0
			for _, n := range r[p] {
				total += n
			}
			if _, got := l.Trans.Run(s, a); got != total {
				t.Fatalf("%s: total of (%d,%d) = %d, reference %d", what, s, a, got, total)
			}
			for next := 0; next < cfg.States; next++ {
				want := 0.0
				if total > 0 {
					want = float64(r[p][next]) / float64(total)
				}
				if got := l.Trans.Prob(s, a, next); got != want {
					t.Fatalf("%s: P(%d -%d-> %d) = %v, reference %v", what, s, a, next, got, want)
				}
			}
		}
	}
	sn := l.Snapshot()
	got, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Version      int       `json:"format_version"`
		Config       Config    `json:"config"`
		Q            []float64 `json:"q"`
		VisitsSA     []int     `json:"visits_sa"`
		VisitsAction []int     `json:"visits_action"`
		Transitions  [][4]int  `json:"transitions"`
	}{1, sn.Config, sn.Q, sn.VisitsSA, sn.VisitsAction, r.tuples(cfg.Actions)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: Snapshot bytes differ from the reference tuples:\n got %s\nwant %s", what, got, want)
	}
}

// TestModelMatchesMapReference drives random sequences of Observe, Seed,
// Merge, SubtractCounts, Clone and a checkpoint round trip through the
// CSR model and through the map-based reference, and requires the two to
// agree after every step: successors and their order, every
// probability, the checkpoint tuples and the wire bytes. 13 states put
// two-digit successors beside one-digit ones.
func TestModelMatchesMapReference(t *testing.T) {
	cfg := DefaultConfig(13, 3)
	pairs := cfg.States * cfg.Actions
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ls [2]*Learner
		var lr [2]refModel
		var sn [3]Snapshot
		var sr [3]refModel
		for i := range ls {
			var err error
			if ls[i], err = NewLearner(cfg); err != nil {
				t.Fatal(err)
			}
			lr[i] = make(refModel, pairs)
		}
		for j := range sn {
			sn[j], sr[j] = ls[0].Snapshot(), make(refModel, pairs)
		}
		for step := 0; step < 300; step++ {
			i, j, k := rng.Intn(2), rng.Intn(3), rng.Intn(3)
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(10); {
			case op < 4: // observe, concentrated on a few states
				s, a, next := rng.Intn(5), rng.Intn(3), rng.Intn(13)
				ls[i].Update(s, a, next, 2*rng.Float64()-1, rng.Intn(4))
				lr[i].observe(s*cfg.Actions+a, next)
			case op == 4:
				sn[j], sr[j] = ls[i].Snapshot(), lr[i].clone()
			case op == 5:
				if err := ls[i].Seed(sn[j]); err != nil {
					t.Fatal(err)
				}
				if err := lr[i].add(sr[j], 1); err != nil {
					t.Fatal(err)
				}
			case op == 6 && j != k:
				if err := sn[j].Merge(sn[k]); err != nil {
					t.Fatal(err)
				}
				if err := sr[j].add(sr[k], 1); err != nil {
					t.Fatal(err)
				}
			case op == 7:
				cur, ref := ls[i].Snapshot(), lr[i].clone()
				visitsOK := true
				for x := range cur.VisitsSA {
					visitsOK = visitsOK && cur.VisitsSA[x] >= sn[j].VisitsSA[x]
				}
				for a := range cur.VisitsAction {
					visitsOK = visitsOK && cur.VisitsAction[a] >= sn[j].VisitsAction[a]
				}
				err := cur.SubtractCounts(sn[j])
				refErr := ref.add(sr[j], -1)
				if wantErr := !visitsOK || refErr != nil; (err != nil) != wantErr {
					t.Fatalf("%s: SubtractCounts err = %v, reference expects error %v", what, err, wantErr)
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
			}
			for x := range ls {
				checkLearner(t, fmt.Sprintf("%s learner %d", what, x), ls[x], lr[x])
			}
			for x := range sn {
				checkModel(t, fmt.Sprintf("%s snapshot %d", what, x), sn[x].Trans, sr[x])
			}
		}
	}
}

// TestSnapshotCopiesShareNoMemory: Snapshot, Clone and LearnerFrom hand
// out tables and models that later observations and folds do not reach.
func TestSnapshotCopiesShareNoMemory(t *testing.T) {
	l := trainedSmallLearner(t, 3, 200)
	sn, kept := l.Snapshot(), l.Snapshot()
	cp := sn.Clone()
	rebuilt, err := LearnerFrom(sn)
	if err != nil {
		t.Fatal(err)
	}
	want := cp.Clone()
	for i := 0; i < 200; i++ {
		l.Update(i%6, i%3, (i*7)%6, 0.5, 0)
	}
	if err := sn.Merge(l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, want) || !reflect.DeepEqual(cp, want) || !reflect.DeepEqual(rebuilt.Snapshot(), want) {
		t.Fatal("a copy changed after the learner and a sibling copy moved on")
	}
}

// TestSnapshotValidateRejectsBadLayout: Validate refuses every way a CSR
// model can be malformed, and LearnerFrom refuses the same models.
func TestSnapshotValidateRejectsBadLayout(t *testing.T) {
	base := func() Snapshot {
		l, err := NewLearner(DefaultConfig(3, 1))
		if err != nil {
			t.Fatal(err)
		}
		l.Trans.Observe(0, 0, 1)
		l.Trans.Observe(0, 0, 2)
		l.Trans.Observe(2, 0, 0)
		return l.Snapshot() // Off [0 2 2 3], Succ [{1 1} {2 1} {0 1}]
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
	cases := []struct {
		name, want string
		damage     func(m *Model)
	}{
		{"offsets decrease", "not ascending", func(m *Model) { m.Off[2] = 1 }},
		{"offset past the successors", "not ascending", func(m *Model) { m.Off[1] = 4 }},
		{"first offset not zero", "do not frame", func(m *Model) { m.Off[0] = 1 }},
		{"last offset short of the successors", "do not frame", func(m *Model) { m.Off[3] = 2 }},
		{"missing pair", "table sizes", func(m *Model) { m.Off = m.Off[:3] }},
		{"successors out of order", "out of order", func(m *Model) { m.Succ[0], m.Succ[1] = m.Succ[1], m.Succ[0] }},
		{"successor repeated", "repeated", func(m *Model) { m.Succ[1].State = 1 }},
		{"successor out of range", "invalid", func(m *Model) { m.Succ[2].State = 3 }},
		{"negative successor", "invalid", func(m *Model) { m.Succ[0].State = -1 }},
		{"zero count", "invalid", func(m *Model) { m.Succ[2].Count = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sn := base()
			c.damage(&sn.Trans)
			err := sn.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error mentioning %q", err, c.want)
			}
			if _, err := LearnerFrom(sn); err == nil {
				t.Fatal("LearnerFrom accepted the damaged model")
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
	if !reflect.DeepEqual(messy.Trans.m, tidy.Trans.m) {
		t.Fatalf("unsorted payload loaded %+v, sorted one %+v", messy.Trans.m, tidy.Trans.m)
	}
	if a, b := saveLearner(t, messy), saveLearner(t, tidy); !bytes.Equal(a, b) {
		t.Fatalf("saved payloads differ:\n%s\n%s", a, b)
	}
	if got := messy.Trans.Prob(0, 0, 2); got != 0.8 {
		t.Fatalf("P(0,0,2) = %v, want 0.8", got)
	}
}
