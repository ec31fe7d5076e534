package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"mamut/internal/core"
	"mamut/internal/rl"
	"mamut/internal/video"
)

// This file makes the KnowledgeStore durable: a versioned, hash-stamped
// JSON artifact that outlives a single run, so a fleet can warm-start
// from knowledge gathered by earlier runs (the KaaS regime's knowledge
// base as a persistent service, not a per-process cache). The payload is
// canonical — encoding/json sorts map keys — so equal stores produce
// equal bytes, and the embedded SHA-256 digest lets an importer reject a
// corrupted or tampered artifact before seeding a fleet from it.

// Knowledge artifact framing.
const (
	knowledgeFormat = "mamut-knowledge"
	// KnowledgeFormatVersion is the current artifact version. Importers
	// accept this version and older; newer versions error cleanly.
	KnowledgeFormatVersion = 1
)

// knowledgeFile is the on-disk envelope around the store payload.
type knowledgeFile struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// SHA256 is the hex digest of the exact payload bytes.
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// knowledgeClass is the serialised per-resolution-class entry.
type knowledgeClass struct {
	Contributions int               `json:"contributions"`
	Agents        [3]knowledgeAgent `json:"agents"`
}

// knowledgeAgent is one agent's rl.Snapshot as the artifact writes it:
// the table dimensions, the tables, and the model last, in the
// artifact's form. The artifact carries no other config field, so an
// imported snapshot's config holds only States and Actions — all that
// folds and seeding read.
type knowledgeAgent struct {
	States, Actions int
	Q               []float64
	VisitsSA        []int
	VisitsAction    []int
	Trans           knowledgeTrans
}

// knowledgeTrans is a transition model as one successor run per (state,
// action) pair, ascending by state. The artifact writes it in the form
// encoding/json gives a []map[int]int: per pair, an object from
// successor state to count, keyed in string order ("12" before "3"), or
// null for a pair never taken.
type knowledgeTrans [][]rl.Succ

// MarshalJSON writes the model in the artifact's form.
func (kt knowledgeTrans) MarshalJSON() ([]byte, error) {
	if kt == nil {
		return []byte("null"), nil
	}
	b := []byte{'['}
	var run []rl.Succ
	for p := range kt {
		if p > 0 {
			b = append(b, ',')
		}
		if run = append(run[:0], kt[p]...); len(run) == 0 {
			b = append(b, "null"...)
			continue
		}
		sort.Slice(run, func(i, j int) bool {
			return strconv.Itoa(int(run[i].State)) < strconv.Itoa(int(run[j].State))
		})
		sep := byte('{')
		for _, sc := range run {
			b = strconv.AppendInt(append(b, sep, '"'), int64(sc.State), 10)
			b = strconv.AppendInt(append(b, '"', ':'), int64(sc.Count), 10)
			sep = ','
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads the artifact's form and only that form: a pair
// that lists a successor twice, or out of the exported key order, is
// rejected rather than silently reordered. rl.Snapshot.Validate checks
// the counts and states themselves.
func (kt *knowledgeTrans) UnmarshalJSON(b []byte) error {
	var runs []map[int]int
	if err := json.Unmarshal(b, &runs); err != nil {
		return err
	}
	var m knowledgeTrans
	if runs != nil {
		m = make(knowledgeTrans, len(runs))
	}
	for p, run := range runs {
		for next, n := range run {
			m[p] = append(m[p], rl.Succ{State: int32(next), Count: n})
		}
		sort.Slice(m[p], func(i, j int) bool { return m[p][i].State < m[p][j].State })
	}
	*kt = m
	canon, _ := kt.MarshalJSON()
	var in bytes.Buffer
	if err := json.Compact(&in, b); err != nil || !bytes.Equal(canon, in.Bytes()) {
		return errors.New("transition counts not in canonical form (each successor once, in exported key order)")
	}
	return nil
}

// MarshalJSON serialises the store as a map keyed by resolution-class
// name. Equal stores marshal to equal bytes (map keys sort), which is
// what makes the export digest — and checkpointed results that embed a
// store — reproducible.
func (ks *KnowledgeStore) MarshalJSON() ([]byte, error) {
	classes := make(map[string]knowledgeClass, len(ks.byRes))
	for res, snap := range ks.byRes {
		kc := knowledgeClass{Contributions: ks.contributions[res]}
		for k, ag := range snap {
			t := ag.Tables()
			trans := make(knowledgeTrans, len(t.Q))
			for _, tu := range t.Transitions {
				p := tu[0]*ag.Config.Actions + tu[1]
				trans[p] = append(trans[p], rl.Succ{State: int32(tu[2]), Count: tu[3]})
			}
			kc.Agents[k] = knowledgeAgent{States: ag.Config.States, Actions: ag.Config.Actions,
				Q: t.Q, VisitsSA: t.VisitsSA, VisitsAction: t.VisitsAction, Trans: trans}
		}
		classes[res.String()] = kc
	}
	return json.Marshal(classes)
}

// UnmarshalJSON restores a store serialised by MarshalJSON, validating
// every snapshot.
func (ks *KnowledgeStore) UnmarshalJSON(b []byte) error {
	var classes map[string]knowledgeClass
	if err := json.Unmarshal(b, &classes); err != nil {
		return fmt.Errorf("serve: knowledge payload: %w", err)
	}
	ks.byRes = make(map[video.Resolution]*core.Snapshot, len(classes))
	ks.contributions = make(map[video.Resolution]int, len(classes))
	for name, kc := range classes {
		var res video.Resolution
		switch name {
		case video.HR.String():
			res = video.HR
		case video.LR.String():
			res = video.LR
		default:
			return fmt.Errorf("serve: knowledge payload: unknown resolution class %q", name)
		}
		if kc.Contributions < 1 {
			return fmt.Errorf("serve: knowledge payload: class %s has %d contributions", name, kc.Contributions)
		}
		var snap core.Snapshot
		for k, ag := range kc.Agents {
			if ag.Actions < 1 || len(ag.Trans) != ag.States*ag.Actions {
				return fmt.Errorf("serve: knowledge payload: class %s: agent %d has %d transition runs for %dx%d pairs",
					name, k, len(ag.Trans), ag.States, ag.Actions)
			}
			var tuples [][4]int
			for p, run := range ag.Trans {
				for _, sc := range run {
					tuples = append(tuples, [4]int{p / ag.Actions, p % ag.Actions, int(sc.State), sc.Count})
				}
			}
			var err error
			snap[k], err = rl.NewSnapshot(rl.Config{States: ag.States, Actions: ag.Actions},
				rl.Tables{Q: ag.Q, VisitsSA: ag.VisitsSA, VisitsAction: ag.VisitsAction, Transitions: tuples})
			if err != nil {
				return fmt.Errorf("serve: knowledge payload: class %s: %w", name, err)
			}
		}
		if err := snap.Validate(); err != nil {
			return fmt.Errorf("serve: knowledge payload: class %s: %w", name, err)
		}
		ks.byRes[res] = &snap
		ks.contributions[res] = kc.Contributions
	}
	return nil
}

// clone copies the store, so a run can accumulate onto imported
// knowledge without mutating the caller's copy; the copies share the
// immutable rows.
func (ks *KnowledgeStore) clone() *KnowledgeStore {
	cp := NewKnowledgeStore()
	for res, snap := range ks.byRes {
		s := snap.Clone()
		cp.byRes[res] = &s
		cp.contributions[res] = ks.contributions[res]
	}
	return cp
}

// Export writes the store as a versioned, hash-stamped JSON artifact. A
// later run imports it with ImportKnowledge and passes it as
// Config.Knowledge, warm-starting the whole fleet from it.
func (ks *KnowledgeStore) Export(w io.Writer) error {
	payload, err := json.Marshal(ks)
	if err != nil {
		return fmt.Errorf("serve: export knowledge: %w", err)
	}
	sum := sha256.Sum256(payload)
	f := knowledgeFile{
		Format:  knowledgeFormat,
		Version: KnowledgeFormatVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Payload: payload,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&f); err != nil {
		return fmt.Errorf("serve: export knowledge: %w", err)
	}
	return nil
}

// ImportKnowledge reads an artifact written by Export, verifying the
// format, the version and the payload digest before validating and
// restoring the store. A digest mismatch means the artifact was
// corrupted or tampered with in storage — seeding a fleet from it would
// silently poison every warm start, so it is rejected outright.
func ImportKnowledge(r io.Reader) (*KnowledgeStore, error) {
	var f knowledgeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("serve: import knowledge: %w", err)
	}
	if f.Format != knowledgeFormat {
		return nil, fmt.Errorf("serve: import knowledge: format %q is not %q", f.Format, knowledgeFormat)
	}
	if f.Version < 1 || f.Version > KnowledgeFormatVersion {
		return nil, fmt.Errorf("serve: import knowledge: artifact version %d not supported (current %d)",
			f.Version, KnowledgeFormatVersion)
	}
	sum := sha256.Sum256(f.Payload)
	if got := hex.EncodeToString(sum[:]); got != f.SHA256 {
		return nil, fmt.Errorf("serve: import knowledge: payload checksum mismatch (artifact corrupted or tampered with): have %s, recorded %s",
			got, f.SHA256)
	}
	ks := NewKnowledgeStore()
	if err := json.Unmarshal(f.Payload, ks); err != nil {
		return nil, err
	}
	return ks, nil
}
