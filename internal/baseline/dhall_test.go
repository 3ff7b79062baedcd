package baseline_test

import (
	"testing"

	"desyncpfair/internal/baseline"
	"desyncpfair/internal/model"
	"desyncpfair/internal/sfq"
)

// The original Dhall effect was an RM phenomenon: the canonical task set
// defeats both global RM and global EDF while Pfair schedules it.
func TestDhallEffectRMvsPfair(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		ws := baseline.DhallWeights(m, 10)
		if rm := baseline.GlobalRM(ws, m, 10); rm.Misses == 0 {
			t.Errorf("M=%d: global RM should miss on the Dhall set", m)
		}
		if edf := baseline.GlobalEDF(ws, m, 10); edf.Misses == 0 {
			t.Errorf("M=%d: global EDF should miss on the Dhall set", m)
		}
		sys := model.Periodic(ws, 10)
		if !sys.Feasible(m) {
			t.Fatalf("M=%d: Dhall set infeasible (util %s)", m, sys.TotalUtilization())
		}
		s, err := sfq.Run(sys, sfq.Options{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if s.MissCount() != 0 {
			t.Errorf("M=%d: PD² missed on the Dhall set", m)
		}
	}
}
