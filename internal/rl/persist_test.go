package rl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// saveLearner and loadLearner are the JSON round trip the session codec
// puts every learner through: Snapshot then json.Marshal, and
// json.Unmarshal then LearnerFrom.
func saveLearner(t testing.TB, l *Learner) []byte {
	t.Helper()
	data, err := json.Marshal(l.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func loadLearner(data string) (*Learner, error) {
	var sn Snapshot
	if err := json.Unmarshal([]byte(data), &sn); err != nil {
		return nil, err
	}
	return LearnerFrom(sn)
}

func trainedLearner(t testing.TB, seed int64) *Learner {
	t.Helper()
	l, err := NewLearner(DefaultConfig(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		l.Update(rng.Intn(20), rng.Intn(5), rng.Intn(20), -4+8*rng.Float64(), rng.Intn(30))
	}
	return l
}

func TestLearnerSaveLoadRoundTrip(t *testing.T) {
	l := trainedLearner(t, 1)
	got, err := loadLearner(string(saveLearner(t, l)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Config() != l.Config() {
		t.Fatal("config not restored")
	}
	for s := 0; s < 20; s++ {
		for a := 0; a < 5; a++ {
			if got.Q(s, a) != l.Q(s, a) {
				t.Fatalf("Q(%d,%d) = %g, want %g", s, a, got.Q(s, a), l.Q(s, a))
			}
			if got.Num(s, a) != l.Num(s, a) {
				t.Fatalf("visits(%d,%d) differ", s, a)
			}
			for next := 0; next < 20; next++ {
				if prob(got, s, a, next) != prob(l, s, a, next) {
					t.Fatalf("P(%d,%d,%d) differs", s, a, next)
				}
			}
		}
	}
	for a := 0; a < 5; a++ {
		if numAction(got, a) != numAction(l, a) {
			t.Fatalf("per-action count %d differs", a)
		}
	}
	// The restored learner keeps learning identically.
	alpha1 := l.Update(3, 2, 7, 0.5, 10)
	alpha2 := got.Update(3, 2, 7, 0.5, 10)
	if alpha1 != alpha2 || l.Q(3, 2) != got.Q(3, 2) {
		t.Error("restored learner diverges on further updates")
	}

	// Layouts MarshalJSON never writes: those encoding/json reads to the
	// same tables load to the learner the canonical bytes hold, and the
	// rest are refused.
	canon := string(saveLearner(t, trainedSmallLearner(t, 8, 40)))
	rest := strings.TrimPrefix(canon, `{"format_version":1,`)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(canon), "", " "); err != nil {
		t.Fatal(err)
	}
	for name, layout := range map[string]struct {
		payload string
		ok      bool
	}{
		"white space":         {indented.String(), true},
		"legacy":              {"{" + rest, true},
		"keys reordered":      {"{" + strings.TrimSuffix(rest, "}") + `,"format_version":1}`, true},
		"trailing space":      {canon + " ", true},
		"fraction in a count": {strings.Replace(canon, `"visits_action":[`, `"visits_action":[1.0,`, 1), false},
		"exponent in a count": {strings.Replace(canon, `"visits_sa":[`, `"visits_sa":[1e0,`, 1), false},
		"float out of range":  {strings.Replace(canon, `"q":[`, `"q":[1e400,`, 1), false},
		"short tuple":         {strings.Replace(canon, `"transitions":[[`, `"transitions":[[0,0],[`, 1), false},
	} {
		got, err := loadLearner(layout.payload)
		switch {
		case !layout.ok && err == nil:
			t.Errorf("%s: accepted", name)
		case layout.ok && err != nil:
			t.Errorf("%s: rejected: %v", name, err)
		case layout.ok:
			if back := string(saveLearner(t, got)); back != canon {
				t.Errorf("%s: re-marshals to\n%s\nwant\n%s", name, back, canon)
			}
		}
	}
}

func TestLoadLearnerRejectsGarbage(t *testing.T) {
	if _, err := loadLearner("not json"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := loadLearner(`{"config":{"States":0}}`); err == nil {
		t.Error("invalid config accepted")
	}
	// Mismatched table sizes.
	if _, err := loadLearner(`{"config":{"States":2,"Actions":2,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},"q":[1],"visits_sa":[0,0,0,0],"visits_action":[0,0]}`); err == nil {
		t.Error("short Q table accepted")
	}
	// Invalid transition tuple.
	if _, err := loadLearner(`{"config":{"States":2,"Actions":2,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[0,0,0,0],"visits_sa":[0,0,0,0],"visits_action":[0,0],"transitions":[[5,0,0,1]]}`); err == nil {
		t.Error("out-of-range transition accepted")
	}
	// A negative visit count, which no learner can reach.
	if _, err := loadLearner(`{"config":{"States":2,"Actions":2,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[0,0,0,0],"visits_sa":[0,-1,0,0],"visits_action":[0,0]}`); err == nil {
		t.Error("negative visit count accepted")
	}
	// Dimensions whose pair count wraps to 0, and dimensions just under
	// the int32 pair bound with empty tables: both are refused before
	// anything is sized by the payload's dimensions.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, payload := range []string{wrappingDims, largeDims} {
		if _, err := loadLearner(payload); err == nil {
			t.Errorf("accepted %.60s", payload)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the crafted dimensions allocated %d bytes", grew)
	}
}

// wrappingDims has 2^32 x 2^32 dimensions, whose pair count wraps to 0
// in int arithmetic and so matches its empty Q-table; largeDims has
// 46340 x 46340, just under the int32 pair bound, with empty tables.
const (
	wrappingDims = `{"config":{"States":4294967296,"Actions":4294967296,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[],"visits_sa":[],"visits_action":[],"transitions":[[0,1,0,1]]}`
	largeDims = `{"format_version":1,"config":{"States":46340,"Actions":46340,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[],"visits_sa":[],"visits_action":[],"transitions":null}`
)

// FuzzSnapshotDecode: no payload panics the checkpoint decoder or the
// rebuild, and a payload both accept re-marshals to the bytes the
// rebuilt learner's snapshot marshals to, which decode back to
// themselves.
func FuzzSnapshotDecode(f *testing.F) {
	canon := saveLearner(f, trainedSmallLearner(f, 4, 30))
	var indented bytes.Buffer
	if err := json.Indent(&indented, canon, "", " "); err != nil {
		f.Fatal(err)
	}
	f.Add(canon)
	f.Add(indented.Bytes())
	f.Add(bytes.Replace(canon, []byte(`"format_version":1,`), nil, 1))
	f.Add([]byte(wrappingDims))
	f.Add([]byte(largeDims))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sn Snapshot
		if json.Unmarshal(data, &sn) != nil {
			return
		}
		l, err := LearnerFrom(sn)
		if err != nil {
			return
		}
		want, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		got := saveLearner(t, l)
		if !bytes.Equal(got, want) {
			t.Fatalf("rebuilt learner marshals differently:\n got %s\nwant %s", got, want)
		}
		again, err := loadLearner(string(got))
		if err != nil {
			t.Fatalf("re-marshalled payload rejected: %v", err)
		}
		if back := saveLearner(t, again); !bytes.Equal(back, got) {
			t.Fatalf("re-marshalled payload decodes to different bytes:\n got %s\nwant %s", back, got)
		}
	})
}

// TestLoadLearnerFormatVersions: legacy unversioned payloads still load
// (version 0), the current version round-trips, and payloads from a
// future writer are refused instead of being misread.
func TestLoadLearnerFormatVersions(t *testing.T) {
	l := trainedLearner(t, 2)
	saved := string(saveLearner(t, l))
	if !strings.Contains(saved, `"format_version":1`) {
		t.Fatalf("saved payload carries no current version stamp: %s", saved[:60])
	}

	// Legacy payload: strip the version field entirely, as written by
	// pre-versioning builds. It must load identically.
	legacy := strings.Replace(saved, `"format_version":1,`, "", 1)
	if legacy == saved {
		t.Fatal("version field not removed")
	}
	got, err := loadLearner(legacy)
	if err != nil {
		t.Fatalf("legacy unversioned payload rejected: %v", err)
	}
	if got.Config() != l.Config() || got.Q(3, 2) != l.Q(3, 2) {
		t.Error("legacy payload restored a different learner")
	}

	// A future writer's payload must error cleanly.
	future := strings.Replace(saved, `"format_version":1`, `"format_version":2`, 1)
	if _, err := loadLearner(future); err == nil {
		t.Error("future format version accepted")
	} else if !strings.Contains(err.Error(), "format version 2 not supported") {
		t.Errorf("unexpected version error: %v", err)
	}

	// Negative versions are nonsense, not legacy.
	if _, err := loadLearner(strings.Replace(saved, `"format_version":1`, `"format_version":-1`, 1)); err == nil {
		t.Error("negative format version accepted")
	}
}

// TestLearnerSaveDeterministic: transitions serialise in ascending
// (state, action, next) order, so saving one learner twice yields the
// same bytes — map iteration order must not leak into checkpoints.
func TestLearnerSaveDeterministic(t *testing.T) {
	l := trainedLearner(t, 3)
	if a, b := saveLearner(t, l), saveLearner(t, l); !bytes.Equal(a, b) {
		t.Fatal("two saves of one learner differ")
	}
	var wire struct{ Transitions [][4]int }
	if err := json.Unmarshal(saveLearner(t, l), &wire); err != nil {
		t.Fatal(err)
	}
	tr := wire.Transitions
	if len(tr) < 2 {
		t.Fatalf("trained learner has %d transitions; want several", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		p, q := tr[i-1], tr[i]
		if [3]int{p[0], p[1], p[2]} == [3]int{q[0], q[1], q[2]} ||
			p[0] > q[0] || (p[0] == q[0] && (p[1] > q[1] || (p[1] == q[1] && p[2] > q[2]))) {
			t.Fatalf("transitions out of order at %d: %v then %v", i, p, q)
		}
	}
}

// TestLoadLearnerLargeCounts: a transition count is added in one step,
// not replayed observation by observation, so a huge count loads at once
// with the right probability; a pair whose total overflows int errors.
func TestLoadLearnerLargeCounts(t *testing.T) {
	const head = `{"format_version":1,"config":{"States":2,"Actions":1,"Beta":0.3,"AlphaTh1":0.1,"AlphaTh2":0.05,"Gamma":0.6},` +
		`"q":[0,0],"visits_sa":[0,0],"visits_action":[0],"transitions":`
	l, err := loadLearner(head + fmt.Sprintf(`[[0,0,0,1],[0,0,1,%d]]}`, 1<<40))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(1<<40) / float64(1<<40+1)
	if got := prob(l, 0, 0, 1); got != want {
		t.Fatalf("P(0,0,1) = %v, want %v", got, want)
	}
	back, err := loadLearner(string(saveLearner(t, l)))
	if err != nil {
		t.Fatal(err)
	}
	if got := prob(back, 0, 0, 1); got != want {
		t.Fatalf("round-tripped P(0,0,1) = %v, want %v", got, want)
	}

	overflow := head + fmt.Sprintf(`[[0,0,0,%d],[0,0,1,1]]}`, math.MaxInt)
	if _, err := loadLearner(overflow); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("overflowing transition total: err = %v", err)
	}
}
