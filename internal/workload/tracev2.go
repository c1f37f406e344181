package workload

import (
	"encoding/json"
	"fmt"
	"os"

	"vmprov/internal/trace"
)

// TraceV2Params parameterize the "tracev2" kind: bit-exact replay of a
// recorded arrival trace in the versioned v2 format (see internal/trace).
// Path is resolved relative to the working directory; the file is read
// and validated when the spec compiles, so malformed traces fail at
// parse time with the decoder's line-numbered error.
type TraceV2Params struct {
	Path   string       `json:"path"`
	Window WindowParams `json:"window,omitzero"`
}

// RequestsFromV2 converts decoded v2 records to replayable requests,
// stamping sequential IDs in record order. IDs only order same-instant
// arrivals and tag trace events, so re-stamping them keeps a replay
// bit-identical to the run that recorded the trace.
func RequestsFromV2(recs []trace.RecordV2) []Request {
	reqs := make([]Request, len(recs))
	for i, rec := range recs {
		reqs[i] = Request{
			ID:      uint64(i + 1),
			Arrival: rec.T,
			Service: rec.Size,
			Class:   rec.Class,
			Client:  rec.Client,
		}
	}
	return reqs
}

// ClientInfosFromV2 converts a v2 header roster to workload client
// cohorts, preserving header order.
func ClientInfosFromV2(clients []trace.ClientV2) []ClientInfo {
	if len(clients) == 0 {
		return nil
	}
	infos := make([]ClientInfo, len(clients))
	for i, c := range clients {
		infos[i] = ClientInfo{Name: c.Name, SLOClass: c.SLOClass}
	}
	return infos
}

func init() {
	Register("tracev2", func(raw json.RawMessage) (*Builder, error) {
		var p TraceV2Params
		if err := DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		if p.Path == "" {
			return nil, fmt.Errorf("tracev2 needs a path to a recorded trace")
		}
		f, err := os.Open(p.Path)
		if err != nil {
			return nil, fmt.Errorf("tracev2: %w", err)
		}
		defer f.Close()
		hdr, recs, err := trace.DecodeV2(f)
		if err != nil {
			return nil, fmt.Errorf("tracev2 %s: %w", p.Path, err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("tracev2 %s: trace has no records", p.Path)
		}
		reqs := RequestsFromV2(recs)
		return &Builder{
			NewSource:   func() Source { return &TraceSource{Requests: reqs} },
			NewAnalyzer: func(Source) Analyzer { return p.Window.analyzer() },
			Clients:     ClientInfosFromV2(hdr.Clients),
		}, nil
	})
}
