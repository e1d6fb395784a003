package radio

import "fmt"

// EnergyConfig models the radio energy cost of the advertising protocols —
// the battery budget of the paper's PDAs and handsets, for which message
// count is only a proxy. Costs are accounted per frame: a fixed per-frame
// overhead (synchronization, headers) plus a per-byte cost derived from the
// radio's power draw and bitrate. Receivers pay for every frame that
// reaches their antenna, including frames later discarded by fading or
// collisions — the radio front-end was powered either way.
type EnergyConfig struct {
	Enabled    bool
	TxBaseJ    float64 // joules per transmitted frame, size-independent
	TxPerByteJ float64 // joules per transmitted byte
	RxBaseJ    float64 // joules per received frame
	RxPerByteJ float64 // joules per received byte
}

// DefaultEnergy returns figures for a 2 Mb/s 802.11-class radio drawing
// ≈1.65 W transmitting and ≈1.4 W receiving: 6.6 µJ/byte tx, 5.6 µJ/byte
// rx, with 100 µJ per-frame overhead either way.
func DefaultEnergy() EnergyConfig {
	return EnergyConfig{
		Enabled:    true,
		TxBaseJ:    100e-6,
		TxPerByteJ: 6.6e-6,
		RxBaseJ:    100e-6,
		RxPerByteJ: 5.6e-6,
	}
}

func (e EnergyConfig) validate() error {
	if !e.Enabled {
		return nil
	}
	if !(finiteNonNeg(e.TxBaseJ) && finiteNonNeg(e.TxPerByteJ) && finiteNonNeg(e.RxBaseJ) && finiteNonNeg(e.RxPerByteJ)) {
		return fmt.Errorf("radio: energy cost not finite and non-negative")
	}
	return nil
}

// EnergyStats summarizes energy spent network-wide.
type EnergyStats struct {
	TotalJ  float64   // joules across all nodes
	TxJ     float64   // transmit share
	RxJ     float64   // receive share
	PerNode []float64 // joules per node (nil when disabled)
}

// chargeTx records a transmitted frame's cost against node i.
func (c *Channel) chargeTx(i, bytes int) {
	if !c.cfg.Energy.Enabled {
		return
	}
	j := c.cfg.Energy.TxBaseJ + c.cfg.Energy.TxPerByteJ*float64(bytes)
	c.energyTx += j
	c.energyPerNode[i] += j
}

// chargeRx records a frame arriving at node i's antenna.
func (c *Channel) chargeRx(i, bytes int) {
	if !c.cfg.Energy.Enabled {
		return
	}
	j := c.cfg.Energy.RxBaseJ + c.cfg.Energy.RxPerByteJ*float64(bytes)
	c.energyRx += j
	c.energyPerNode[i] += j
}

// Energy returns the accumulated energy accounting. PerNode is a copy.
func (c *Channel) Energy() EnergyStats {
	st := EnergyStats{TxJ: c.energyTx, RxJ: c.energyRx, TotalJ: c.energyTx + c.energyRx}
	if c.cfg.Energy.Enabled {
		st.PerNode = append([]float64(nil), c.energyPerNode...)
	}
	return st
}
