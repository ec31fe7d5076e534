package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mamut/internal/core"
	"mamut/internal/rl"
	"mamut/internal/video"
)

// -update regenerates the committed knowledge artifact pin.
var updatePin = flag.Bool("update", false, "regenerate testdata/knowledge_pin.json")

// trainedStore runs a short knowledge-reuse fleet and returns its store.
func trainedStore(t *testing.T) *KnowledgeStore {
	t.Helper()
	cfg := shortSessionConfig()
	cfg.Workload.DurationSec = 120
	cfg.KnowledgeReuse = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knowledge == nil || res.KnowledgeContributions == 0 {
		t.Fatal("training run produced no knowledge")
	}
	return res.Knowledge
}

// TestKnowledgeExportImportRoundTrip: Export then Import restores an
// exactly equal store, and equal stores export equal bytes (the digest
// is reproducible).
func TestKnowledgeExportImportRoundTrip(t *testing.T) {
	ks := trainedStore(t)
	var buf bytes.Buffer
	if err := ks.Export(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ImportKnowledge(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ks) {
		t.Error("imported store differs from exported store")
	}
	// Re-exporting the imported store reproduces the artifact bytes.
	var buf2 bytes.Buffer
	if err := got.Export(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("round-tripped export is not byte-identical")
	}
}

// pinnedStore builds a small fixed store from seeded learners: 14-state
// agents, so successor keys cross a digit boundary (encoding/json writes
// the key "12" before "3"), pairs never taken (written as null), both
// resolution classes, and a second HR contribution folded in by Merge.
func pinnedStore(t *testing.T) *KnowledgeStore {
	t.Helper()
	ks := NewKnowledgeStore()
	for i, res := range []video.Resolution{video.HR, video.LR, video.HR} {
		var sn core.Snapshot
		for k := range sn {
			l, err := rl.NewLearner(rl.DefaultConfig(14, 2+k))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10*i + k)))
			for n := 0; n < 40; n++ {
				l.Update(rng.Intn(14), rng.Intn(2+k), rng.Intn(14), 2*rng.Float64()-1, rng.Intn(5))
			}
			sn[k] = l.Snapshot()
		}
		if err := ks.Contribute(res, sn); err != nil {
			t.Fatal(err)
		}
	}
	return ks
}

// TestKnowledgeArtifactWirePin pins the exported artifact's bytes: the
// envelope, the payload digest, the float formatting of the Q-tables and
// the transition maps (keys in encoding/json's string order, null for an
// unobserved pair). Importing the committed artifact and exporting it
// again reproduces it byte for byte.
func TestKnowledgeArtifactWirePin(t *testing.T) {
	golden := filepath.Join("testdata", "knowledge_pin.json")
	var buf bytes.Buffer
	if err := pinnedStore(t).Export(&buf); err != nil {
		t.Fatal(err)
	}
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading pin (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exported artifact diverged from %s:\n got: %s\nwant: %s", golden, buf.Bytes(), want)
	}
	for _, frag := range []string{`null`, `"12":`, `"States":14`} {
		if !bytes.Contains(want, []byte(frag)) {
			t.Fatalf("pinned artifact does not exercise %s", frag)
		}
	}
	ks, err := ImportKnowledge(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := ks.Export(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), want) {
		t.Fatal("re-exported imported artifact is not byte-identical")
	}
}

// TestKnowledgeImportRejectsDamage: a flipped payload byte, a future
// version and a foreign format must all be rejected before any store
// state is built.
func TestKnowledgeImportRejectsDamage(t *testing.T) {
	ks := trainedStore(t)
	var buf bytes.Buffer
	if err := ks.Export(&buf); err != nil {
		t.Fatal(err)
	}
	artifact := buf.String()

	// Corrupt one digit inside the payload (keep JSON well-formed so
	// only the checksum can catch it).
	corrupt := strings.Replace(artifact, `"contributions":`, `"contributions":1`, 1)
	if corrupt == artifact {
		t.Fatal("corruption did not apply")
	}
	if _, err := ImportKnowledge(strings.NewReader(corrupt)); err == nil {
		t.Error("corrupted payload accepted")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("unexpected corruption error: %v", err)
	}

	future := strings.Replace(artifact, `"version":1`, `"version":2`, 1)
	if future == artifact {
		t.Fatal("version bump did not apply")
	}
	if _, err := ImportKnowledge(strings.NewReader(future)); err == nil {
		t.Error("future version accepted")
	} else if !strings.Contains(err.Error(), "version 2 not supported") {
		t.Errorf("unexpected version error: %v", err)
	}

	foreign := strings.Replace(artifact, knowledgeFormat, "other-format", 1)
	if _, err := ImportKnowledge(strings.NewReader(foreign)); err == nil {
		t.Error("foreign format accepted")
	}

	if _, err := ImportKnowledge(strings.NewReader("not json")); err == nil {
		t.Error("non-JSON artifact accepted")
	}

	// A payload edited and re-hashed passes the digest, so the transition
	// runs themselves must be checked: a run listing its successors out of
	// the exported key order, or one successor twice, is refused.
	run := regexp.MustCompile(`\{"(\d+)":(\d+),"(\d+)":(\d+)`)
	for name, repl := range map[string]string{
		"out-of-order run":   `{"$3":$4,"$1":$2`,
		"repeated successor": `{"$1":$2,"$1":$2`,
	} {
		var f knowledgeFile
		if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		loc := run.FindIndex(f.Payload)
		if loc == nil {
			t.Fatal("trained store has no run with two successors")
		}
		edited := append(append([]byte(nil), f.Payload[:loc[0]]...), run.ReplaceAll(f.Payload[loc[0]:loc[1]], []byte(repl))...)
		f.Payload = append(edited, f.Payload[loc[1]:]...)
		sum := sha256.Sum256(f.Payload)
		f.SHA256 = hex.EncodeToString(sum[:])
		rehashed, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ImportKnowledge(bytes.NewReader(rehashed)); err == nil {
			t.Errorf("re-hashed payload with a %s accepted", name)
		} else if !strings.Contains(err.Error(), "canonical form") {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

// TestKnowledgeTransMatchesMapEncoding: the artifact's transition
// encoder writes, for random models, exactly the bytes encoding/json
// gives the []map[int]int the artifact held before, and reads them back
// to the same model.
func TestKnowledgeTransMatchesMapEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pairs := 1 + rng.Intn(8)
		maps := make([]map[int]int, pairs)
		m := make(knowledgeTrans, pairs)
		for p := range maps {
			for next := 0; next < 120; next++ {
				if rng.Intn(12) == 0 {
					if maps[p] == nil {
						maps[p] = map[int]int{}
					}
					maps[p][next] = 1 + rng.Intn(1<<uint(rng.Intn(40)+1))
					m[p] = append(m[p], rl.Succ{State: int32(next), Count: maps[p][next]})
				}
			}
		}
		want, err := json.Marshal(maps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: encoded\n%s\nwant\n%s", trial, got, want)
		}
		var back knowledgeTrans
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("trial %d: decoded %+v, want %+v", trial, back, m)
		}
	}
}

// TestImportedKnowledgeWarmStartsFleet: a fleet seeded from an imported
// store reports seeding activity immediately and is bit-identical to a
// fleet seeded from the original in-memory store.
func TestImportedKnowledgeWarmStartsFleet(t *testing.T) {
	ks := trainedStore(t)
	var buf bytes.Buffer
	if err := ks.Export(&buf); err != nil {
		t.Fatal(err)
	}
	imported, err := ImportKnowledge(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	next := shortSessionConfig()
	next.Workload.DurationSec = 90
	next.Seed = 11
	next.KnowledgeReuse = true

	fromMemory := next
	fromMemory.Knowledge = ks
	want, err := Run(fromMemory)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := next
	fromFile.Knowledge = imported
	got, err := Run(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fleet warm-started from artifact differs from in-memory warm start")
	}
	if got.KnowledgeSeeded == 0 {
		t.Error("imported knowledge seeded no sessions")
	}

	// The caller's store must not absorb this run's contributions.
	if !reflect.DeepEqual(imported, func() *KnowledgeStore {
		k, err := ImportKnowledge(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}()) {
		t.Error("Run mutated the imported store")
	}
}
