package main

import (
	"bytes"
	"io"
	"os"
	"testing"

	"m3v/internal/trace"
)

// FuzzReadSeries feeds arbitrary bytes through everything m3vstat does with
// a series file: parse, then the utilization/queue-depth/tail report and
// the CSV dump. Malformed input must be a parse error or a report, never a
// panic.
func FuzzReadSeries(f *testing.F) {
	good, err := os.ReadFile(writeFixture(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, doc := range []string{
		// Timestamps and values of different lengths.
		`{"schema":"m3vseries/v1","interval_ps":1000,"runs":[{"series":[` +
			`{"name":"tile01.mux.busy_ps","kind":"delta","t_ps":[1000,2000],"v":[5]}]}]}`,
		// A busy series with no interval, a negative one, and extreme values.
		`{"schema":"m3vseries/v1","interval_ps":0,"runs":[{"series":[` +
			`{"name":"tile01.mux.busy_ps","kind":"delta","t_ps":[1000],"v":[5]}]}]}`,
		`{"schema":"m3vseries/v1","interval_ps":-7,"runs":[{"series":[` +
			`{"name":"tile01.mux.busy_ps","kind":"delta","t_ps":[9223372036854775807,-9223372036854775808],"v":[-1,9223372036854775807]},` +
			`{"name":"q","kind":"gauge","t_ps":[],"v":[]}],` +
			`"histograms":[{"name":"h","count":-1,"p50_ps":-9223372036854775808,"max":-1}]}]}`,
		`{"schema":"m3vseries/v0"}`,
		`{}`,
		``,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := trace.ReadSeries(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := report(io.Discard, sf); err != nil {
			t.Fatalf("report: %v", err)
		}
		if err := writeCSV(io.Discard, sf); err != nil {
			t.Fatalf("writeCSV: %v", err)
		}
	})
}
