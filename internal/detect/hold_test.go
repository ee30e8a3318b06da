package detect

import (
	"testing"

	"roboads/internal/core"
	"roboads/internal/mat"
)

// actuatorOutput builds a minimal engine output whose actuator statistic
// (d̂aᵀ·Pa⁻¹·d̂a, which the engine computes) is either strongly alarming
// or clean, with DaValid controlling observability.
func actuatorOutput(k int, alarming, daValid bool) *core.Output {
	da, stat := mat.VecOf(0, 0), 0.0
	if alarming {
		da, stat = mat.VecOf(10, 10), 2e4
	}
	res := &core.Result{
		Da:      da,
		Pa:      mat.Identity(2).Scale(1e-2),
		DaValid: daValid,
	}
	return &core.Output{
		Iteration:    k,
		SelectedMode: &core.Mode{Name: "ref=synthetic"},
		Result:       res,
		ActuatorStat: stat,
	}
}

// Iterations where the actuator anomaly is unobservable (DaValid false,
// e.g. standstill) must hold the c-of-w window rather than dilute it
// with negatives: a confirmed alarm survives a brief stop, and resumes
// counting down only once observability returns.
func TestDecideHoldsActuatorWindowWhenUnobservable(t *testing.T) {
	d := NewDecider(DefaultConfig()) // actuator window: 3 of 6

	k := 0
	step := func(alarming, daValid bool) *Decision {
		dec, err := d.Decide(actuatorOutput(k, alarming, daValid))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		k++
		return dec
	}

	// Confirm an attack: three alarming, observable iterations.
	var dec *Decision
	for i := 0; i < 3; i++ {
		dec = step(true, true)
	}
	if !dec.ActuatorAlarm {
		t.Fatal("actuator alarm not confirmed after 3 of 6 positives")
	}

	// Standstill: far more unobservable iterations than the window is
	// wide. The alarm must hold throughout.
	for i := 0; i < 10; i++ {
		if dec = step(false, false); !dec.ActuatorAlarm {
			t.Fatalf("unobservable iteration %d dropped the confirmed alarm", i)
		}
		if dec.ActuatorRaw {
			t.Fatal("unobservable iteration reported a raw actuator positive")
		}
	}

	// Observability returns with a clean actuator: the positives age out
	// and the alarm clears within one window length.
	cleared := false
	for i := 0; i < 6; i++ {
		if dec = step(false, true); !dec.ActuatorAlarm {
			cleared = true
			break
		}
	}
	if !cleared {
		t.Fatal("alarm did not clear after observable clean iterations")
	}
}
