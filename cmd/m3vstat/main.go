// m3vstat summarizes a telemetry series file (written by m3vsim/m3vbench
// with -sample-interval and -series) into a utilization and tail-latency
// report: per-tile busy-time timelines (peak, steady-state, saturation
// onset), queue-depth percentiles per sampled gauge, and the quantile table
// of every recorded histogram.
//
//	m3vsim -rounds 100 -shared -sample-interval 100ns -series s.json
//	m3vstat s.json
//	m3vstat -csv s.json > samples.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"m3v/internal/sim"
	"m3v/internal/stats"
	"m3v/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "m3vstat: %v\n", err)
		}
		os.Exit(1)
	}
}

// run executes the report per the given command-line arguments, writing to
// out. Split from main for CLI tests.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("m3vstat", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "dump the samples as CSV (run,series,kind,t_ps,value) instead of the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: m3vstat [-csv] series.json")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	sf, err := trace.ReadSeries(f)
	f.Close()
	if err != nil {
		return err
	}
	if *csv {
		return writeCSV(out, sf)
	}
	return report(out, sf)
}

func writeCSV(out io.Writer, sf *trace.SeriesFile) error {
	if _, err := io.WriteString(out, "run,series,kind,t_ps,value\n"); err != nil {
		return err
	}
	for ri, run := range sf.Runs {
		for _, sr := range run.Series {
			for i, t := range sr.TPs {
				if _, err := fmt.Fprintf(out, "%d,%s,%s,%d,%d\n",
					ri, sr.Name, sr.Kind, t, sr.V[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func report(out io.Writer, sf *trace.SeriesFile) error {
	fmt.Fprintf(out, "interval: %v, %d run(s)\n", sim.Time(sf.IntervalPs), len(sf.Runs))
	for ri, run := range sf.Runs {
		tag := ""
		if len(sf.Runs) > 1 {
			tag = fmt.Sprintf(" (run %d)", ri)
		}
		reportUtilization(out, tag, sf.IntervalPs, run)
		reportQueueDepths(out, tag, run)
		reportTails(out, tag, run)
	}
	return nil
}

// reportUtilization renders the per-tile busy-time timelines: windows of the
// tileNN.mux.busy_ps delta series divided by the sampling interval.
func reportUtilization(out io.Writer, tag string, intervalPs int64, run trace.SeriesRunData) {
	t := stats.NewTable("tile", "overall", "peak", "steady", "saturated at")
	rows := 0
	for _, sr := range run.Series {
		tile, ok := strings.CutSuffix(sr.Name, ".mux.busy_ps")
		if !ok || len(sr.V) == 0 || intervalPs <= 0 {
			continue
		}
		utils := make([]float64, len(sr.V))
		var total int64
		peak := 0.0
		for i, v := range sr.V {
			u := float64(v) / float64(intervalPs)
			if u > 1 {
				u = 1 // the first window can over-attribute a long-running hold
			}
			utils[i] = u
			total += v
			if u > peak {
				peak = u
			}
		}
		// Overall spans the retained window (the rings keep the most recent
		// samples); steady-state is the median window, robust against the
		// boot and drain phases.
		span := sr.TPs[len(sr.TPs)-1] - sr.TPs[0] + intervalPs
		overall := float64(total) / float64(span)
		sorted := append([]float64(nil), utils...)
		sort.Float64s(sorted)
		steady := sorted[len(sorted)/2]
		// Saturation onset: the first window reaching 95% of the peak — when
		// the tile first ran as hot as it ever would.
		onset := "-"
		if peak > 0 {
			for i, u := range utils {
				if u >= 0.95*peak {
					onset = sim.Time(sr.TPs[i]).String()
					break
				}
			}
		}
		t.AddRow(tile, pct(overall), pct(peak), pct(steady), onset)
		rows++
	}
	if rows == 0 {
		return
	}
	fmt.Fprintf(out, "\n-- utilization%s --\n%s", tag, t.String())
}

// reportQueueDepths renders sample percentiles for every gauge series:
// queue depths, backlog, occupancy.
func reportQueueDepths(out io.Writer, tag string, run trace.SeriesRunData) {
	t := stats.NewTable("gauge", "p50", "p90", "p99", "max")
	rows := 0
	for _, sr := range run.Series {
		if sr.Kind != "gauge" || len(sr.V) == 0 {
			continue
		}
		sorted := append([]int64(nil), sr.V...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		t.AddRow(sr.Name, atQ(sorted, 0.50), atQ(sorted, 0.90), atQ(sorted, 0.99),
			sorted[len(sorted)-1])
		rows++
	}
	if rows == 0 {
		return
	}
	fmt.Fprintf(out, "\n-- queue depths%s --\n%s", tag, t.String())
}

// reportTails renders the histogram quantile table: the latency tails the
// sketch retained without raw samples.
func reportTails(out io.Writer, tag string, run trace.SeriesRunData) {
	if len(run.Histograms) == 0 {
		return
	}
	t := stats.NewTable("histogram", "count", "p50", "p90", "p99", "p999", "max")
	for _, h := range run.Histograms {
		t.AddRow(h.Name, h.Count, sim.Time(h.P50Ps), sim.Time(h.P90Ps),
			sim.Time(h.P99Ps), sim.Time(h.P999Ps), sim.Time(h.Max))
	}
	fmt.Fprintf(out, "\n-- tail latency%s --\n%s", tag, t.String())
}

// atQ indexes a sorted sample slice at quantile q.
func atQ(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// pct formats a ratio as a percentage.
func pct(r float64) string { return fmt.Sprintf("%.1f%%", 100*r) }
