// Package dump stores and serializes Wikipedia-style revision histories and
// turns them into action streams.
//
// The paper had to crawl and parse entity revision logs because Wikipedia
// exposes no structured revisions database ("Due to the lack of an
// appropriate API, obtaining the Wikipedia data required crawling and
// parsing", §6.1) — and that parsing dominates the preprocessing bars of
// Figure 4. This package is that layer: a JSONL dump format holding raw
// wikitext revisions, plus the extraction pipeline that diffs consecutive
// revisions of each article into link add/remove actions.
package dump

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"wiclean/internal/action"
	"wiclean/internal/taxonomy"
)

// Revision is one stored revision of an article: the full wikitext body at
// a timestamp, exactly what a crawl of the revision history yields.
type Revision struct {
	Entity string      `json:"entity"`
	T      action.Time `json:"ts"`
	Text   string      `json:"text"`
}

// WriteRevisions streams revisions as JSON Lines.
func WriteRevisions(w io.Writer, revs []Revision) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range revs {
		if err := enc.Encode(&revs[i]); err != nil {
			return fmt.Errorf("dump: encoding revision %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadRevisions parses a JSON Lines revision dump.
func ReadRevisions(r io.Reader) ([]Revision, error) {
	var out []Revision
	dec := json.NewDecoder(r)
	for {
		var rev Revision
		if err := dec.Decode(&rev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("dump: decoding revision %d: %w", len(out), err)
		}
		out = append(out, rev)
	}
}

// ActionRecord is the preprocessed, human-readable action format — one
// Figure-1 row as JSON. Preprocessed logs load much faster than raw
// revision dumps, which is the paper's point about a missing "publicly
// available structured revisions database".
type ActionRecord struct {
	Op       string      `json:"op"` // "+" or "-"
	Subject  string      `json:"subject"`
	Relation string      `json:"relation"`
	Object   string      `json:"object"`
	T        action.Time `json:"ts"`
}

// WriteActions streams action records as JSON Lines.
func WriteActions(w io.Writer, recs []ActionRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("dump: encoding action %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadActions parses an action log (see DecodeActions).
func ReadActions(r io.Reader) ([]ActionRecord, error) {
	var out []ActionRecord
	err := DecodeActions(r, func(rec ActionRecord) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeActions is the one reader of the action log format: it streams
// the ActionRecords of r, a sequence of JSON objects (WriteActions puts
// one on each line, but any whitespace separates them), to each in order.
// It stops at the first malformed record or the first error each returns,
// and returns that error.
func DecodeActions(r io.Reader, each func(ActionRecord) error) error {
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		var rec ActionRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("dump: decoding action %d: %w", n, err)
		}
		if err := each(rec); err != nil {
			return err
		}
	}
}

// RecordOf converts an action to its serializable record.
func RecordOf(a action.Action, reg *taxonomy.Registry) ActionRecord {
	return ActionRecord{
		Op:       a.Op.String(),
		Subject:  reg.Name(a.Edge.Src),
		Relation: string(a.Edge.Label),
		Object:   reg.Name(a.Edge.Dst),
		T:        a.T,
	}
}

// ActionOf converts a record back to an action, resolving names via reg.
// Unknown subjects or objects are reported as errors; an unknown op is too.
func ActionOf(rec ActionRecord, reg *taxonomy.Registry) (action.Action, error) {
	op, err := action.ParseOp(rec.Op)
	if err != nil {
		return action.Action{}, fmt.Errorf("dump: %w", err)
	}
	src, ok := reg.Lookup(rec.Subject)
	if !ok {
		return action.Action{}, fmt.Errorf("dump: unknown subject %q", rec.Subject)
	}
	dst, ok := reg.Lookup(rec.Object)
	if !ok {
		return action.Action{}, fmt.Errorf("dump: unknown object %q", rec.Object)
	}
	return action.Action{
		Op:   op,
		Edge: action.Edge{Src: src, Label: action.Label(rec.Relation), Dst: dst},
		T:    rec.T,
	}, nil
}
