package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadFlows feeds arbitrary bytes through everything m3vtrace does with
// a flow file: parse, well-formedness check, latency report and Perfetto
// export. The report and export run even when the check finds problems, as
// m3vtrace's report mode does, so malformed input must never panic there.
// The hand-written Perfetto writer must emit valid JSON with one slice per
// span whatever the field values.
func FuzzReadFlows(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFlows(&good, []*Recorder{flowFixture()}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	for _, doc := range []string{
		// A span that is its own parent.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":1,"id":1,"parent":1,"name":"dtu.send","comp":"dtu","tile":0,"at":100,"end":200}]}]}`,
		// Two spans sharing one ID.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":1,"id":7,"name":"dtu.send","comp":"dtu","tile":0,"at":100,"end":200},` +
			`{"flow":1,"id":7,"parent":7,"name":"dtu.tlb","comp":"dtu","tile":0,"at":110,"end":110,"path":"fast"}]}]}`,
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":1,"id":1,"parent":-3,"name":"?","comp":"?","tile":-1,"at":9,"end":-9}]}]}`,
		`{"schema":"m3vflows/v0"}`,
		`{}`,
		``,
		// Negative tiles, on a flow with an arrow.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":2,"id":1,"name":"dtu.send","comp":"dtu","tile":-3,"at":100,"end":200},` +
			`{"flow":2,"id":2,"name":"dtu.fetch","comp":"dtu","tile":-2147483648,"at":300,"end":300}]}]}`,
		// Flow 0: spans of no message, one instant and one timed.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":0,"id":1,"name":"tilemux.irq","comp":"tilemux","tile":1,"at":5,"end":5},` +
			`{"flow":0,"id":2,"name":"tilemux.switch","comp":"tilemux","tile":1,"at":5,"end":900,"arg0":-1}]}]}`,
		// An open span.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":7,"id":1,"name":"dtu.core_req","comp":"dtu","tile":0,"at":100,"end":-1},` +
			`{"flow":0,"id":2,"name":"noc.xfer","comp":"noc","tile":0,"at":100,"end":-1}]}]}`,
		// Timestamps at the ends of the int64 range.
		`{"schema":"m3vflows/v1","runs":[{"run":0,"spans":[` +
			`{"flow":18446744073709551615,"id":1,"name":"noc.xfer","comp":"noc","tile":0,"at":9223372036854775807,"end":9223372036854775807},` +
			`{"flow":18446744073709551615,"id":2,"name":"noc.queue","comp":"noc","tile":0,"at":-9223372036854775808,"end":9223372036854775807},` +
			`{"flow":0,"id":3,"name":"fault.delay","comp":"fault","tile":0,"at":-9223372036854775808,"end":9223372036854775806}]}]}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ff, err := ReadFlows(bytes.NewReader(data))
		if err != nil {
			return
		}
		CheckFlows(ff)
		_ = AnalyzeFlows(ff).Format()
		var out bytes.Buffer
		if err := WriteFlowsChrome(&out, ff); err != nil {
			t.Fatalf("WriteFlowsChrome: %v", err)
		}
		if !json.Valid(out.Bytes()) {
			t.Fatalf("WriteFlowsChrome emitted invalid JSON:\n%s", out.Bytes())
		}
		var chrome struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(out.Bytes(), &chrome); err != nil {
			t.Fatalf("decoding the Perfetto export: %v", err)
		}
		nslices, spans := 0, 0
		for _, ev := range chrome.TraceEvents {
			if ev.Ph == "X" || ev.Ph == "i" {
				nslices++
			}
		}
		for _, run := range ff.Runs {
			spans += len(run.Spans)
		}
		if nslices != spans {
			t.Fatalf("Perfetto export has %d slices for %d spans", nslices, spans)
		}
	})
}
