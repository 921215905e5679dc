package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReadFlows feeds arbitrary bytes through everything m3vtrace does with
// a flow file: parse, well-formedness check, latency report and Perfetto
// export. The report and export run even when the check finds problems, as
// m3vtrace's report mode does, so malformed input must never panic there.
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
		if err := WriteFlowsChrome(io.Discard, ff); err != nil {
			t.Fatalf("WriteFlowsChrome: %v", err)
		}
	})
}
