package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"m3v/internal/bench"
)

// FuzzCanonicalize feeds arbitrary POST /run bodies through the admission
// path (decodeRequest's size limit and unknown-field check, Canonicalize
// against the real registry, Digest). Malformed input must be an error,
// never a panic, and canonicalization must be a fixed point: the canonical
// request canonicalizes to itself with the same digest and the same runner
// parameters, so a digest names exactly one simulation. The canonical
// request must also survive the JSON echo in the response body.
func FuzzCanonicalize(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig6"}`,
		`{"experiment":"fig9","tiles":4}`,
		`{"experiment":"fig9","tiles":2,"fault_seed":7,"fault_rate":0.05,"sample_interval":"100ns"}`,
		`{"experiment":"fig9","tiles":-3}`,
		`{"experiment":"fig9","tiles":100000}`,
		`{"experiment":"fig6","fault_rate":1.5}`,
		`{"experiment":"fig6","fault_rate":-0,"fault_seed":9}`,
		`{"experiment":"fig6","sample_interval":"soon"}`,
		`{"experiment":"fig6","sample_interval":"-5ns"}`,
		`{"experiment":"fig6","sample_interval":"1.0005us"}`,
		`{"experiment":"fig6","sched":"heap"}`,
		`{"experiment":"table1"}`,
		`{"experiment":"fig6"} trailing`,
		``,
		`null`,
		`[1,2]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		canon, params, err := Canonicalize(req, bench.Lookup)
		if err != nil {
			return
		}
		again, params2, err := Canonicalize(canon, bench.Lookup)
		if err != nil {
			t.Fatalf("canonical request %+v rejected: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("canonicalization not idempotent:\n%+v\n%+v", canon, again)
		}
		if again.Digest() != canon.Digest() {
			t.Fatalf("digest of canonical request %+v changed", canon)
		}
		if !reflect.DeepEqual(params, params2) {
			t.Fatalf("canonical request %+v maps to different params:\n%+v\n%+v", canon, params, params2)
		}
		echo, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		if wire, err := decodeRequest(bytes.NewReader(echo)); err != nil || wire != canon {
			t.Fatalf("echoed request %s decodes to %+v (%v), want %+v", echo, wire, err, canon)
		}
	})
}
