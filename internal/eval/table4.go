package eval

import (
	"fmt"
	"io"

	"roboads/internal/attack"
	"roboads/internal/core"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sensors"
	"roboads/internal/sim"
)

// Table4Row is one sensor setting's actuator anomaly estimate variance
// (Table IV).
type Table4Row struct {
	// Setting names the reference sensor set ("IPS", "Wheel encoder",
	// "LiDAR", "All 3 sensors").
	Setting string
	// VarVl and VarVr are the mean estimation variances of the actuator
	// anomaly components (left/right wheel), averaged over the mission.
	VarVl, VarVr float64
}

// Table4Result reproduces Table IV: actuator anomaly vector variance
// under different sensor settings. The paper's ordering — IPS < wheel
// encoder ≪ LiDAR, and all-three below every single sensor — follows
// from the sensor noise floors and the fusion variance reduction of
// §V-E.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs a clean mission and measures the analytic covariance Pa of
// the actuator anomaly estimate for each reference setting.
func Table4(seed int64) (*Table4Result, error) {
	clean := attack.CleanScenario()
	setup, err := sim.NewKhepera(sim.LabMission(), &clean, seed)
	if err != nil {
		return nil, err
	}
	records, err := setup.Sim.Run(scenario.MaxIterations)
	if err != nil {
		return nil, err
	}

	ips, we, lidar := setup.Suite[0], setup.Suite[1], setup.Suite[2]
	settings := []struct {
		name string
		refs []sensors.Sensor
	}{
		{"IPS", []sensors.Sensor{ips}},
		{"Wheel encoder", []sensors.Sensor{we}},
		{"LiDAR", []sensors.Sensor{lidar}},
		{"All 3 sensors", []sensors.Sensor{ips, we, lidar}},
	}

	plant := core.Plant{
		Model:       setup.Model,
		Q:           robot.ProcessNoise(setup.ProcessStd),
		AngleStates: []int{2},
		UMax:        robot.KheperaUMax(),
	}

	out := &Table4Result{}
	for _, setting := range settings {
		mode, err := core.NewMode(setting.refs, nil)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(setting.refs))
		for i, s := range setting.refs {
			names[i] = s.Name()
		}

		x := setup.X0.Clone()
		px := robot.InitialCovariance(3)
		var sumVl, sumVr float64
		n := 0
		for _, rec := range records {
			var z2 mat.Vec
			for _, name := range names {
				z2 = append(z2, rec.Readings[name]...)
			}
			res, err := core.NUISE(plant, mode.Reference, nil, rec.UPlanned, x, px, nil, z2)
			if err != nil {
				return nil, fmt.Errorf("table4 %s k=%d: %w", setting.name, rec.K, err)
			}
			x, px = res.X, res.Px
			// Skip the initial covariance transient.
			if rec.K >= 20 {
				sumVl += res.Pa.At(0, 0)
				sumVr += res.Pa.At(1, 1)
				n++
			}
		}
		out.Rows = append(out.Rows, Table4Row{
			Setting: setting.name,
			VarVl:   sumVl / float64(n),
			VarVr:   sumVr / float64(n),
		})
	}
	return out, nil
}

// Write renders the table in the paper's layout.
func (t *Table4Result) Write(w io.Writer) {
	fmt.Fprintf(w, "%-16s %-18s %s\n", "Sensor setting", "Var on Vl (m/s)²", "Var on Vr (m/s)²")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "%-16s %-18.3g %.3g\n", row.Setting, row.VarVl, row.VarVr)
	}
	fmt.Fprintln(w, "\npaper (×10⁻⁵, speed-unit scale): IPS 2.39/1.94, encoder 2.76/2.04, LiDAR 21.7/20.3, all-3 2.32/1.88")
	fmt.Fprintln(w, "expected shape: LiDAR ≫ encoder > IPS, and all-3 < every single sensor")
}

// Shape checks the paper's qualitative claims; it returns nil when the
// ordering holds.
func (t *Table4Result) Shape() error {
	byName := make(map[string]Table4Row, len(t.Rows))
	for _, r := range t.Rows {
		byName[r.Setting] = r
	}
	ips, we, lidar, all := byName["IPS"], byName["Wheel encoder"], byName["LiDAR"], byName["All 3 sensors"]
	if !(lidar.VarVl > we.VarVl && we.VarVl > ips.VarVl) {
		return fmt.Errorf("table4: single-sensor ordering violated: lidar %.3g, we %.3g, ips %.3g",
			lidar.VarVl, we.VarVl, ips.VarVl)
	}
	if !(all.VarVl < ips.VarVl && all.VarVl < we.VarVl && all.VarVl < lidar.VarVl) {
		return fmt.Errorf("table4: fusion variance %.3g not below singles", all.VarVl)
	}
	if !(all.VarVr < ips.VarVr && all.VarVr < we.VarVr && all.VarVr < lidar.VarVr) {
		return fmt.Errorf("table4: fusion Vr variance %.3g not below singles", all.VarVr)
	}
	return nil
}
