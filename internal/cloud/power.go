package cloud

// The linear host power model every data center meters with, a typical
// dual-socket 2011-era server: an active host (one hosting at least one
// VM) draws idleWatts plus (peakWatts−idleWatts) scaled by its core
// utilization; hosts with no VMs are powered off. This supports the
// paper's motivation of "reduced financial and environmental costs":
// fewer provisioned VM hours concentrate load on fewer active hosts.
const (
	idleWatts = 175
	peakWatts = 250
)

// powerMeter integrates data-center power over time. Incremental state:
// the number of active hosts and the sum over hosts of their core
// utilization fraction.
type powerMeter struct {
	activeHosts int
	sumFrac     float64 // Σ usedCores/h.cores over active hosts
	lastT       float64
	joules      float64
}

// watts returns the instantaneous draw.
func (m *powerMeter) watts() float64 {
	return idleWatts*float64(m.activeHosts) + (peakWatts-idleWatts)*m.sumFrac
}

// advance integrates up to time t.
func (m *powerMeter) advance(t float64) {
	if t > m.lastT {
		m.joules += m.watts() * (t - m.lastT)
		m.lastT = t
	}
}

// hostChanged updates the meter after a host's VM count or core usage
// changed. prevVMs/prevFrac describe the host before the change.
func (m *powerMeter) hostChanged(prevVMs int, prevFrac float64, nowVMs int, nowFrac float64) {
	if prevVMs > 0 {
		m.activeHosts--
		m.sumFrac -= prevFrac
	}
	if nowVMs > 0 {
		m.activeHosts++
		m.sumFrac += nowFrac
	}
}

// EnergyKWh returns the energy consumed through time now (seconds), in
// kilowatt-hours.
func (dc *Datacenter) EnergyKWh(now float64) float64 {
	dc.power.advance(now)
	return dc.power.joules / 3.6e6
}

// frac returns h's core-utilization fraction.
func (h *host) frac() float64 {
	return float64(h.usedCores) / float64(h.spec.Cores)
}
