package exp

import (
	"encoding/json"
	"fmt"
	"io"

	dragonfly "repro"
)

// Record is the JSONL line of one finished point. Each line is
// self-contained — config included — so a .jsonl file fully describes a
// campaign and can be filtered, resumed from, or re-plotted on its own.
// JSONL files hold canonical records (see RecordOf), in campaign order,
// so the whole stream is a deterministic function of the campaign;
// dragonsrv's progress events and results API carry the full records.
//
// Seconds is Outcome.Seconds: the time from the campaign's start to the
// point's outcome, queue wait included.
type Record struct {
	Index   int               `json:"index"`
	Series  string            `json:"series"`
	X       float64           `json:"x"`
	Cached  bool              `json:"cached,omitempty"`
	Seconds float64           `json:"seconds"`
	Error   string            `json:"error,omitempty"`
	Config  dragonfly.Config  `json:"config"`
	Result  *dragonfly.Result `json:"result,omitempty"`
}

// RecordOf builds the record of an outcome; the record's Result points
// into o. Canonical records drop the two volatile fields — Seconds
// (wall time) and Cached (a property of the store, not the experiment)
// — so the line depends only on the point and its deterministic result.
func RecordOf(o *Outcome, canonical bool) Record {
	rec := Record{
		Index:  o.Index,
		Series: o.Point.Series,
		X:      o.Point.X,
		Config: o.Point.Config,
	}
	if !canonical {
		rec.Cached = o.Cached
		rec.Seconds = o.Seconds
	}
	if o.Err != nil {
		rec.Error = o.Err.Error()
	} else {
		rec.Result = &o.Result
	}
	return rec
}

// WriteCanonicalRecord emits one outcome as a canonical JSON line — the
// same bytes Options.JSONL receives for it.
func WriteCanonicalRecord(w io.Writer, o *Outcome) error {
	buf, err := json.Marshal(RecordOf(o, true))
	if err != nil {
		return fmt.Errorf("exp: encode jsonl record: %w", err)
	}
	if _, err := w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("exp: write jsonl record: %w", err)
	}
	return nil
}

// WriteCanonical emits finished outcomes as canonical JSON lines, in
// slice order: a whole campaign's canonical stream when outs is in
// campaign order.
func WriteCanonical(w io.Writer, outs []Outcome) error {
	for i := range outs {
		if err := WriteCanonicalRecord(w, &outs[i]); err != nil {
			return err
		}
	}
	return nil
}
