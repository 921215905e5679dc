package bench

import (
	"testing"

	"m3v/internal/sim"
	"m3v/internal/trace"
	"m3v/internal/traces"
	"m3v/internal/ycsb"
)

func TestFig6Shape(t *testing.T) {
	r := Fig6()
	t.Log("\n" + r.String())
	remote := r.Get("M3v remote")
	local := r.Get("M3v local")
	syscall := r.Get("Linux syscall")
	yield2 := r.Get("Linux yield (2x)")
	if remote <= 0 || local <= 0 || syscall <= 0 || yield2 <= 0 {
		t.Fatal("missing measurements")
	}
	// Remote RPC is roughly as fast as a Linux syscall (within 2x).
	if ratio := remote / syscall; ratio < 0.5 || ratio > 2 {
		t.Errorf("remote/syscall = %.2f, want ~1", ratio)
	}
	// Local RPC costs several times more than remote.
	if ratio := local / remote; ratio < 1.5 || ratio > 5 {
		t.Errorf("local/remote = %.2f, want 1.5-5", ratio)
	}
	// Local RPC is on the level of two Linux yields (within 2x).
	if ratio := local / yield2; ratio < 0.5 || ratio > 2.5 {
		t.Errorf("local/yield2 = %.2f, want ~1", ratio)
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7()
	t.Log("\n" + r.String())
	for _, label := range []string{"Linux read", "Linux write",
		"M3v read (shared)", "M3v read (isolated)",
		"M3v write (shared)", "M3v write (isolated)"} {
		if r.Get(label) <= 0 {
			t.Fatalf("missing %s", label)
		}
	}
	// Reads beat writes everywhere.
	if r.Get("Linux read") <= r.Get("Linux write") {
		t.Error("Linux read should beat Linux write")
	}
	if r.Get("M3v read (isolated)") <= r.Get("M3v write (isolated)") {
		t.Error("M3v read should beat M3v write")
	}
	// M3v reads beat Linux reads (direct extent access).
	if r.Get("M3v read (shared)") <= r.Get("Linux read") {
		t.Error("M3v shared read should beat Linux read")
	}
	// Sharing costs throughput.
	if r.Get("M3v read (shared)") >= r.Get("M3v read (isolated)") {
		t.Error("shared read should be slower than isolated")
	}
	if r.Get("M3v write (shared)") >= r.Get("M3v write (isolated)") {
		t.Error("shared write should be slower than isolated")
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8()
	t.Log("\n" + r.String())
	linux := r.Get("Linux")
	shared := r.Get("M3v (shared)")
	isolated := r.Get("M3v (isolated)")
	if linux <= 0 || shared <= 0 || isolated <= 0 {
		t.Fatal("missing measurements")
	}
	if isolated >= shared {
		t.Error("isolated should be faster than shared")
	}
	// Shared stays competitive with Linux (within ~3x either way).
	if ratio := shared / linux; ratio < 0.3 || ratio > 3 {
		t.Errorf("shared/linux = %.2f, want competitive", ratio)
	}
}

func TestFig9SingleTileTwoFold(t *testing.T) {
	// The paper's headline: with a single tile, M3v achieves about 2x the
	// throughput of M3x on context-switch-heavy workloads.
	for _, tr := range []struct {
		name string
		mk   func() *traces.Trace
	}{{"find", traces.Find}, {"SQLite", traces.SQLite}} {
		m3v := Fig9Point(false, 1, tr.mk)
		m3x := Fig9Point(true, 1, tr.mk)
		t.Logf("%s 1 tile: M3v %.0f runs/s, M3x %.0f runs/s (%.2fx)", tr.name, m3v, m3x, m3v/m3x)
		if m3v <= m3x {
			t.Errorf("%s: M3v (%.0f) should beat M3x (%.0f) on one tile", tr.name, m3v, m3x)
		}
		if ratio := m3v / m3x; ratio < 1.4 || ratio > 8 {
			t.Errorf("%s: M3v/M3x = %.2f, want ~2x", tr.name, ratio)
		}
	}
}

// TestFig9QueueStaysShallow pins the event-queue depth of the M³v find
// point on one tile, a switch-heavy run: TileMux queues at most one
// preemption check per tile, so the sampled sim.events_pending stays at a
// handful of events (max 4, mean 2.1). One check per switch, each left
// queued until its slice would have ended, kept it near 170.
func TestFig9QueueStaysShallow(t *testing.T) {
	trace.ClearRegistered()
	trace.SetAutoRegister(true, false)
	defer trace.ClearRegistered()
	_, err := fig9Run(Params{SampleInterval: 10 * sim.Microsecond}, nil, false, 1, traces.Find)
	trace.SetAutoRegister(false, false)
	if err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, rec := range trace.Registered() {
		for _, sr := range rec.Sampler().Series() {
			if sr.Name() != "sim.events_pending" {
				continue
			}
			for i := 0; i < sr.Len(); i++ {
				if _, v := sr.Sample(i); v > 4 {
					t.Fatalf("sim.events_pending = %d at sample %d, want at most 4", v, i)
				}
			}
			samples += sr.Len()
		}
	}
	if samples == 0 {
		t.Fatal("no sim.events_pending samples")
	}
}

func TestFig9Scalability(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// M3v scales almost linearly; M3x plateaus.
	mk := traces.Find
	v1 := Fig9Point(false, 1, mk)
	v4 := Fig9Point(false, 4, mk)
	v8 := Fig9Point(false, 8, mk)
	x1 := Fig9Point(true, 1, mk)
	x4 := Fig9Point(true, 4, mk)
	x8 := Fig9Point(true, 8, mk)
	t.Logf("M3v find: 1->%.0f 4->%.0f 8->%.0f runs/s", v1, v4, v8)
	t.Logf("M3x find: 1->%.0f 4->%.0f 8->%.0f runs/s", x1, x4, x8)
	if v8 < 6*v1 {
		t.Errorf("M3v 8-tile speedup = %.2fx, want near-linear (>6x)", v8/v1)
	}
	if x8 > 2.5*x1 {
		t.Errorf("M3x 8-tile speedup = %.2fx, want a plateau (<2.5x)", x8/x1)
	}
	if v8 < 4*x8 {
		t.Errorf("at 8 tiles M3v (%.0f) should dominate M3x (%.0f)", v8, x8)
	}
}

func TestVoiceAssistantShape(t *testing.T) {
	r := VoiceAssistant()
	t.Log("\n" + r.String())
	iso := r.Get("isolated")
	sh := r.Get("shared")
	if iso <= 0 || sh <= 0 {
		t.Fatal("missing measurements")
	}
	if sh < iso {
		t.Errorf("shared (%v ms) should not beat isolated (%v ms)", sh, iso)
	}
	overhead := r.Get("sharing overhead")
	if overhead < 0 || overhead > 30 {
		t.Errorf("sharing overhead = %.1f%%, want small (paper: 3.6%%)", overhead)
	}
	if ratio := r.Get("FLAC ratio"); ratio <= 0 || ratio >= 1.1 {
		t.Errorf("FLAC ratio = %.2f", ratio)
	}
}

func TestFig10ReadHeavyShape(t *testing.T) {
	// One mix end-to-end (the full figure runs in the harness).
	runs := cloudRuns(ycsb.ReadHeavy)
	iso := m3vCloud(Params{}, nil, runs, false)
	sh := m3vCloud(Params{}, nil, runs, true)
	lx := linuxCloud(nil, runs)
	t.Logf("read-heavy: iso=%v shared=%v linux=%v", iso.total, sh.total, lx.total)
	if iso.total <= 0 || sh.total <= 0 || lx.total <= 0 {
		t.Fatal("missing measurements")
	}
	if sh.total < iso.total {
		t.Error("shared should not beat isolated")
	}
	// Shared competitive with Linux (within 2.5x).
	if ratio := sh.total.Seconds() / lx.total.Seconds(); ratio > 2.5 {
		t.Errorf("shared/linux = %.2f, want competitive", ratio)
	}
	if sh.system <= 0 {
		t.Error("no system time accounted for fs+net")
	}
}

func TestTable1Shape(t *testing.T) {
	r := Table1()
	t.Log("\n" + r.String())
	delta := r.Get("virtualization logic delta")
	if delta < 3 || delta > 12 {
		t.Errorf("virtualization delta = %.1f%%, want ~6%%", delta)
	}
	if r.Get("virtualization added registers") != 4 {
		t.Error("virtualization should add 4 registers")
	}
	total := r.Get("vDTU kLUTs")
	if total < 8 || total > 25 {
		t.Errorf("vDTU = %.1f kLUTs, want in the ballpark of 15.2", total)
	}
}

func TestSoftwareComplexityShape(t *testing.T) {
	r := SoftwareComplexity()
	t.Log("\n" + r.String())
	c := r.Get("controller")
	m := r.Get("TileMux")
	if c <= 0 || m <= 0 {
		t.Fatal("SLOC counting failed")
	}
	if c <= m {
		t.Error("the controller should be larger than TileMux")
	}
	if ratio := c / m; ratio < 1.5 {
		t.Errorf("controller/TileMux = %.0f/%.0f SLOC = %.2f, want at least 1.5", c, m, ratio)
	}
}

var _ = sim.Second

func TestFig10ScanAnomaly(t *testing.T) {
	// Paper §6.5.2: "Linux performs worse than M3v (shared) for scans" —
	// the application loses its cache state on every system call, while
	// M3v handles block reads through the vDTU without context switches.
	runs := cloudRuns(ycsb.ScanHeavy)
	sh := m3vCloud(Params{}, nil, runs, true)
	lx := linuxCloud(nil, runs)
	t.Logf("scan-heavy: shared=%v linux=%v", sh.total, lx.total)
	if lx.total <= sh.total {
		t.Errorf("Linux (%v) should be slower than M3v shared (%v) on scans", lx.total, sh.total)
	}
}
