package source

import (
	"context"
	"fmt"
	"os"

	"wiclean/internal/action"
	"wiclean/internal/dump"
	"wiclean/internal/taxonomy"
)

// DumpFile is the lazy dump-backed HistorySource: it streams a
// preprocessed actions.jsonl log (the format of internal/dump) straight
// off disk through dump.DecodeActions, keeping only the records whose
// subject has the requested type and whose timestamp is inside the
// window. Nothing is materialized beyond the matching actions, which is
// what lets the incremental miner (§4, Optimization (b)) run against
// dumps far larger than memory — the WikiLinkGraphs-scale regime the
// ROADMAP targets. Options.Build puts it behind a Fetcher, so each type
// is streamed once.
type DumpFile struct {
	path string
	reg  *taxonomy.Registry
}

// NewDumpFile returns a source streaming the JSONL action log at path,
// typed against reg. The file is opened per fetch, so concurrent fetches
// never share a file cursor.
func NewDumpFile(path string, reg *taxonomy.Registry) *DumpFile {
	return &DumpFile{path: path, reg: reg}
}

// Registry returns the entity registry the log is resolved against.
func (s *DumpFile) Registry() *taxonomy.Registry { return s.reg }

// ctxCheckEvery is how many records a streaming scan decodes between
// context checks.
const ctxCheckEvery = 1024

// FetchType scans the log and returns the actions of entities(t) inside
// w exactly as Memory serves them from the log ingested whole: the
// matching records go through dump.History.IngestRecords, which skips
// records naming entities outside the registry, and come back through
// its ActionsOf. A record the decoder rejects is a permanent error.
func (s *DumpFile) FetchType(ctx context.Context, t taxonomy.Type, w action.Window) ([]action.Action, error) {
	if !s.reg.Taxonomy().Has(t) {
		return nil, Permanent(fmt.Errorf("source: unknown type %q", t))
	}
	f, err := os.Open(s.path)
	if err != nil {
		return nil, fmt.Errorf("source: opening dump: %w", err)
	}
	defer f.Close()

	var recs []dump.ActionRecord
	n := 0
	err = dump.DecodeActions(f, func(rec dump.ActionRecord) error {
		if n++; n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if src, ok := s.reg.Lookup(rec.Subject); ok && s.reg.HasType(src, t) && w.Contains(rec.T) {
			recs = append(recs, rec)
		}
		return nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err // canceled mid-scan: no fault of the file's
		}
		return nil, Permanent(fmt.Errorf("source: reading %s: %w", s.path, err))
	}
	h := dump.NewHistory(s.reg)
	h.IngestRecords(recs)
	return h.ActionsOf(s.reg.EntitiesOf(t), w), nil
}
