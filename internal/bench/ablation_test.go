package bench

import "testing"

func TestAblationMediationShape(t *testing.T) {
	r := runDriver(t, ablations)
	t.Log("\n" + r.String())
	slow := r.Get("mediation slowdown")
	if slow < 4 {
		t.Errorf("mediation slowdown = %.1fx, want substantial (paper: ~10x)", slow)
	}
}
