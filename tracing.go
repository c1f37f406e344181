package vmprov

import (
	"io"

	"vmprov/internal/experiment"
	"vmprov/internal/trace"
)

// Structured run tracing, re-exported for runs that need an audit trail
// of scaling decisions and request lifecycles (RunOptions.Tracer).
type (
	// TraceEvent is one structured trace record.
	TraceEvent = trace.Event
	// TraceRecorder sinks trace events.
	TraceRecorder = trace.Recorder
	// TraceRing keeps the last N events in memory.
	TraceRing = trace.Ring
	// TraceWriter streams events as JSON Lines.
	TraceWriter = trace.Writer

	// TraceV2Header is the self-describing first line of a v2 arrival
	// trace (format, version, fields, units, client roster).
	TraceV2Header = trace.HeaderV2
	// TraceV2Record is one arrival of a v2 trace.
	TraceV2Record = trace.RecordV2
	// TraceV2Client declares one client cohort in a v2 trace header.
	TraceV2Client = trace.ClientV2
	// TraceV2Writer streams a v2 arrival trace, validating at write time.
	TraceV2Writer = trace.WriterV2
	// TraceDecodeError reports where a malformed v2 trace was rejected
	// (1-based line number).
	TraceDecodeError = trace.DecodeError
)

// Trace event kinds.
const (
	TraceAccept   = trace.KindAccept
	TraceReject   = trace.KindReject
	TraceComplete = trace.KindComplete
	TraceScale    = trace.KindScale
	TraceFleet    = trace.KindFleet
	TraceCrash    = trace.KindCrash
	TracePredict  = trace.KindPredict
)

// NewTraceRing returns an in-memory recorder of the last n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// NewTraceWriter returns a JSONL recorder writing to w.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// TraceRecorderMulti fans events out to several recorders.
func TraceRecorderMulti(rs ...TraceRecorder) TraceRecorder { return trace.Multi(rs) }

// NewTraceV2Writer writes a v2 arrival-trace header for the given client
// roster and returns the record writer.
func NewTraceV2Writer(w io.Writer, clients []TraceV2Client) (*TraceV2Writer, error) {
	return trace.NewWriterV2(w, clients)
}

// EncodeTraceV2 writes a complete v2 arrival trace (header + records).
func EncodeTraceV2(w io.Writer, clients []TraceV2Client, recs []TraceV2Record) error {
	return trace.EncodeV2(w, clients, recs)
}

// DecodeTraceV2 strictly parses a v2 arrival trace; malformed input is
// rejected with a *TraceDecodeError carrying the offending line.
func DecodeTraceV2(r io.Reader) (TraceV2Header, []TraceV2Record, error) {
	return trace.DecodeV2(r)
}

// RecordTrace runs only the scenario's workload source at the given seed
// and streams every arrival to w as a v2 trace; replaying it through the
// "tracev2" workload kind reproduces the run's workload-derived metrics
// bit for bit. Returns the record count.
func RecordTrace(sc Scenario, seed uint64, w io.Writer) (int, error) {
	return experiment.RecordTrace(sc, seed, w)
}
