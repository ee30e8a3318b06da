package core

import (
	"errors"
	"fmt"
	"strings"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
)

// Mode is one sensor-condition hypothesis of the multi-mode engine: the
// Reference sensors are hypothesized clean, every Testing sensor
// potentially misbehaving (§IV-B).
type Mode struct {
	// Name labels the hypothesis, e.g. "ref=ips".
	Name string
	// Reference is the stacked clean-sensor block supplying z2.
	Reference sensors.Sensor
	// ReferenceNames are the component workflow names of Reference.
	ReferenceNames []string
	// Testing are the potentially misbehaving sensors supplying z1, in
	// stacking order.
	Testing []sensors.Sensor

	referenceParts []sensors.Sensor // the sensors Reference stacks, in order
	testingStacked sensors.Sensor   // nil when len(Testing) == 0
}

// ErrNoModes indicates an engine constructed without modes.
var ErrNoModes = errors.New("core: no modes")

// NewMode builds a mode from reference and testing sensor sets.
func NewMode(reference []sensors.Sensor, testing []sensors.Sensor) (*Mode, error) {
	if len(reference) == 0 {
		return nil, errors.New("core: mode needs at least one reference sensor")
	}
	ref, err := sensors.NewStacked(reference...)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(reference))
	for i, s := range reference {
		names[i] = s.Name()
	}
	m := &Mode{
		Name:           "ref=" + strings.Join(names, "+"),
		Reference:      ref,
		ReferenceNames: names,
		Testing:        append([]sensors.Sensor(nil), testing...),
		referenceParts: append([]sensors.Sensor(nil), reference...),
	}
	if len(testing) > 0 {
		stacked, err := sensors.NewStacked(testing...)
		if err != nil {
			return nil, err
		}
		m.testingStacked = stacked
	}
	return m, nil
}

// TestingStacked returns the stacked testing-sensor block, or nil when
// the mode tests nothing (e.g. the all-reference fusion mode of Table IV).
func (m *Mode) TestingStacked() sensors.Sensor { return m.testingStacked }

// SensorAnomaly is the per-workflow split of the stacked d̂s estimate,
// used by the decision maker's per-sensor identification tests
// (Algorithm 1 lines 13–18). Its covariance is the diagonal block of the
// stacked Ps at the sensor's offset; the engine reports its χ² statistic
// (Output.SensorStats).
type SensorAnomaly struct {
	// Sensor is the workflow name.
	Sensor string
	// Ds is this sensor's slice of the anomaly estimate.
	Ds mat.Vec
}

// SplitDs slices the stacked anomaly estimate back into per-sensor
// components (copies: the split shares nothing with ds).
func (m *Mode) SplitDs(ds mat.Vec) []SensorAnomaly {
	return m.splitDs(ds, mat.NewSlab(ds.Len(), 0))
}

// splitDs is SplitDs with the copies carved from slab.
func (m *Mode) splitDs(ds mat.Vec, slab *mat.Slab) []SensorAnomaly {
	out := make([]SensorAnomaly, len(m.Testing))
	off := 0
	for j, s := range m.Testing {
		d := s.Dim()
		part := slab.Vec(d)
		copy(part, ds[off:off+d])
		out[j] = SensorAnomaly{Sensor: s.Name(), Ds: part}
		off += d
	}
	return out
}

// HypothesizedCorrupted reports whether the mode hypothesizes the named
// sensor as potentially misbehaving.
func (m *Mode) HypothesizedCorrupted(name string) bool {
	for _, s := range m.Testing {
		if s.Name() == name {
			return true
		}
	}
	return false
}

// SingleReferenceModes builds the paper's default mode set (§VI "Mode set
// selection"): one mode per sensor, with that sensor as the sole
// reference and all others testing. M grows linearly with the sensor
// count. Modes whose reference cannot reconstruct the state (the §VI
// observability requirement, checked at the nominal point (x0, u0)) are
// rejected with an error unless skipUnobservable is true, in which case
// they are silently dropped.
func SingleReferenceModes(model dynamics.Model, suite []sensors.Sensor, x0, u0 mat.Vec, skipUnobservable bool) ([]*Mode, error) {
	modes := make([]*Mode, 0, len(suite))
	for i, ref := range suite {
		if !sensors.Observable(model, ref, x0, u0) {
			if skipUnobservable {
				continue
			}
			return nil, fmt.Errorf("core: reference sensor %q cannot reconstruct the state (group it, §VI)", ref.Name())
		}
		testing := make([]sensors.Sensor, 0, len(suite)-1)
		for j, s := range suite {
			if j != i {
				testing = append(testing, s)
			}
		}
		m, err := NewMode([]sensors.Sensor{ref}, testing)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		return nil, ErrNoModes
	}
	return modes, nil
}

// LeaveOneOutModes builds one mode per sensor with all *other* sensors
// grouped as the reference and that sensor alone testing. This is the
// §VI grouping remedy for suites where a single sensor cannot provide
// actuator observability (the Tamiya's acceleration input is invisible
// to pose-only sensors within one step — only the IMU reads speed).
// It detects any single-sensor corruption; with two or more corrupted
// sensors every reference group is contaminated, a limitation the caller
// accepts by choosing this mode set.
func LeaveOneOutModes(model dynamics.Model, suite []sensors.Sensor, x0, u0 mat.Vec) ([]*Mode, error) {
	if len(suite) < 2 {
		return nil, ErrNoModes
	}
	modes := make([]*Mode, 0, len(suite))
	for i, testing := range suite {
		ref := make([]sensors.Sensor, 0, len(suite)-1)
		for j, s := range suite {
			if j != i {
				ref = append(ref, s)
			}
		}
		stacked, err := sensors.NewStacked(ref...)
		if err != nil {
			return nil, err
		}
		if !sensors.Observable(model, stacked, x0, u0) {
			return nil, fmt.Errorf("core: reference group %q cannot reconstruct the state", stacked.Name())
		}
		m, err := NewMode(ref, []sensors.Sensor{testing})
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

// CompleteModes builds the full hypothesis set of §VI: one mode per
// nonempty clean subset (2^p − 1 modes, excluding all-corrupted),
// dropping subsets that fail the observability requirement. Exponential
// in the sensor count — the ablation benchmark quantifies the cost.
func CompleteModes(model dynamics.Model, suite []sensors.Sensor, x0, u0 mat.Vec) ([]*Mode, error) {
	p := len(suite)
	var modes []*Mode
	for mask := 1; mask < 1<<p; mask++ {
		var ref, testing []sensors.Sensor
		for i, s := range suite {
			if mask&(1<<i) != 0 {
				ref = append(ref, s)
			} else {
				testing = append(testing, s)
			}
		}
		stacked, err := sensors.NewStacked(ref...)
		if err != nil {
			return nil, err
		}
		if !sensors.Observable(model, stacked, x0, u0) {
			continue
		}
		m, err := NewMode(ref, testing)
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		return nil, ErrNoModes
	}
	return modes, nil
}

// FusionMode builds a single mode with every sensor as reference and
// nothing testing — the "all sensors" sensor-fusion configuration of
// Table IV that minimizes the actuator anomaly estimate variance.
func FusionMode(suite []sensors.Sensor) (*Mode, error) {
	return NewMode(suite, nil)
}
