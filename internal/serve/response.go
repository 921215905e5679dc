package serve

import (
	"encoding/json"

	"m3v/internal/bench"
)

// ResponseSchema versions the POST /run response body.
const ResponseSchema = "m3vd/v2"

// Response is the POST /run reply: the canonical request echoed back, its
// digest, and the experiment result in m3vbench row shape. It carries no
// wall-clock or per-process data — the body is a pure function of the
// request, which is what lets the cache replay it byte-for-byte.
type Response struct {
	Schema  string         `json:"schema"`
	Digest  string         `json:"digest"`
	Request Request        `json:"request"`
	Result  ResponseResult `json:"result"`
}

// ResponseResult mirrors bench.Result in the m3vbench report row shape.
type ResponseResult struct {
	ID    string        `json:"id"`
	Title string        `json:"title"`
	Rows  []ResponseRow `json:"rows"`
	Notes []string      `json:"notes,omitempty"`
}

// ResponseRow mirrors the m3vbench benchRow schema.
type ResponseRow struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Paper float64 `json:"paper,omitempty"`
}

// encodeResult renders a finished experiment deterministically: fixed field
// order (struct-driven), fixed indentation, trailing newline.
func encodeResult(req Request, digest string, res *bench.Result) ([]byte, error) {
	out := Response{
		Schema:  ResponseSchema,
		Digest:  digest,
		Request: req,
		Result: ResponseResult{
			ID:    res.ID,
			Title: res.Title,
			Notes: res.Notes,
		},
	}
	for _, row := range res.Rows {
		out.Result.Rows = append(out.Result.Rows, ResponseRow{
			Label: row.Label,
			Value: row.Value,
			Unit:  row.Unit,
			Paper: row.Paper,
		})
	}
	body, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// encodeError renders an error body; never cached.
func encodeError(err error) []byte {
	body, merr := json.Marshal(map[string]string{"error": err.Error()})
	if merr != nil {
		return []byte(`{"error":"internal"}`)
	}
	return append(body, '\n')
}
