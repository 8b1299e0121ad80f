// Package fabric extends the measurement study one tier up the Clos
// topology — the paper's stated future work ("Due to current deployment
// restrictions, we concentrate on ToR switches for this study and leave
// the study of other network tiers to future work", §4.2).
//
// A Cluster runs several rack simulations in lockstep and stands up one
// fabric switch per uplink index, wired the standard folded-Clos way:
// uplink f of every ToR connects to fabric switch f. Each fabric switch
// is a full asic.Switch, so the same collection framework (the poller,
// the wire protocol, the analyses) measures it with zero changes:
//
//	fabric switch f ports [0, K)         one per rack (ToR-facing, 40G)
//	fabric switch f ports [K, K+2)       spine-facing (100G)
//
// The spine tier is fixed: two 100G spine ports per fabric switch, and a
// 4 MiB shared buffer carved at alpha 2 — fabric chips are deeper than a
// ToR's.
//
// Traffic at the fabric tier is derived from the racks' uplink streams:
// what a ToR sends up uplink f arrives at fabric f's rack port and is
// forwarded to a spine port (per-rack static ECMP, as lumpy as real flow
// hashing); what a ToR receives on uplink f must have left fabric f's
// ToR-facing egress port. No traffic is invented or lost.
//
// The tier-comparison claim this enables (§4.2, citing Jupiter [19]):
// ToR ports are burstier than fabric/spine ports — aggregation across
// racks statistically multiplexes the µbursts away. CompareTiers
// quantifies it; TestFabricSmoothsBursts and the extension bench check it.
package fabric

import (
	"fmt"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
)

// Config configures a cluster.
type Config struct {
	// RackConfigs lists the per-rack simulations (apps may differ). All
	// racks must share the same topology shape.
	RackConfigs []simnet.Config
}

// The fixed spine tier of every fabric switch (see the package doc).
const (
	spinePorts        = 2
	spineSpeed        = topo.Gbps100
	fabricBufferBytes = 4 << 20
	fabricAlpha       = 2
)

// Cluster is a set of racks under a fabric-switch tier.
type Cluster struct {
	racks   []*simnet.Net
	fabrics []*asic.Switch
	shape   topo.Rack

	// perTick[f][port] accumulates this tick's offered bytes/profile for
	// fabric switch f, filled by the rack observers and flushed by Run.
	pending []map[int]offer
}

type offer struct {
	bytes   float64
	profile asic.TrafficProfile
}

// New builds the cluster and wires the rack observers.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.RackConfigs) == 0 {
		return nil, fmt.Errorf("fabric: no racks")
	}
	c := &Cluster{}
	for i := range cfg.RackConfigs {
		rc := cfg.RackConfigs[i]
		net, err := simnet.New(rc)
		if err != nil {
			return nil, fmt.Errorf("fabric: rack %d: %w", i, err)
		}
		if i == 0 {
			c.shape = net.Rack()
		} else if net.Rack() != c.shape {
			return nil, fmt.Errorf("fabric: rack %d shape differs", i)
		}
		c.racks = append(c.racks, net)
	}

	k := len(c.racks)
	for f := 0; f < c.shape.NumUplinks; f++ {
		speeds := make([]uint64, 0, k+spinePorts)
		names := make([]string, 0, k+spinePorts)
		for r := 0; r < k; r++ {
			speeds = append(speeds, c.shape.UplinkSpeed)
			names = append(names, fmt.Sprintf("tor%d", r))
		}
		for s := 0; s < spinePorts; s++ {
			speeds = append(speeds, spineSpeed)
			names = append(names, fmt.Sprintf("spine%d", s))
		}
		c.fabrics = append(c.fabrics, asic.New(asic.Config{
			PortSpeeds:  speeds,
			PortNames:   names,
			BufferBytes: fabricBufferBytes,
			Alpha:       fabricAlpha,
		}))
		c.pending = append(c.pending, make(map[int]offer))
	}

	for r, net := range c.racks {
		r := r
		net.SetTxObserver(func(_ simclock.Time, port int, nbytes float64, profile asic.TrafficProfile) {
			c.onRackTx(r, port, nbytes, profile)
		})
		net.SetRxObserver(func(_ simclock.Time, port int, nbytes float64, profile asic.TrafficProfile) {
			c.onRackRx(r, port, nbytes, profile)
		})
	}
	return c, nil
}

// onRackTx handles ToR→fabric traffic: the ToR's uplink-f egress arrives
// at fabric f's rack port (RX) and is forwarded to a spine port.
func (c *Cluster) onRackTx(rack, port int, nbytes float64, profile asic.TrafficProfile) {
	if !c.shape.IsUplink(port) {
		return
	}
	f := port - c.shape.NumServers
	sw := c.fabrics[f]
	sw.OfferRx(rack, nbytes, profile)
	// Spine egress: per-rack static assignment mimics flow-hash lumpiness
	// at rack granularity.
	spine := c.spinePortIndex(rack)
	c.accumulate(f, spine, nbytes, profile)
}

// onRackRx handles fabric→ToR traffic: what the ToR receives on uplink f
// was forwarded by fabric f out of its rack-facing port, having arrived
// from a spine port.
func (c *Cluster) onRackRx(rack, port int, nbytes float64, profile asic.TrafficProfile) {
	if !c.shape.IsUplink(port) {
		return
	}
	f := port - c.shape.NumServers
	sw := c.fabrics[f]
	// Arrived from the spine.
	sw.OfferRx(c.spinePortIndex(rack), nbytes, profile)
	// Leaves toward the rack.
	c.accumulate(f, rack, nbytes, profile)
}

// accumulate merges an egress offer into the tick-pending set for fabric f.
func (c *Cluster) accumulate(f, port int, nbytes float64, profile asic.TrafficProfile) {
	o := c.pending[f][port]
	if o.bytes == 0 {
		o.profile = profile
	} else {
		total := o.bytes + nbytes
		for i := range o.profile {
			o.profile[i] = (o.profile[i]*o.bytes + profile[i]*nbytes) / total
		}
	}
	o.bytes += nbytes
	c.pending[f][port] = o
}

// spinePortIndex returns the fabric-switch port index of the spine port
// assigned to a rack.
func (c *Cluster) spinePortIndex(rack int) int {
	return len(c.racks) + rack%spinePorts
}

// NumRacks returns the rack count.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// Rack returns rack i's simulation.
func (c *Cluster) Rack(i int) *simnet.Net { return c.racks[i] }

// NumFabrics returns the fabric-switch count (= uplinks per ToR).
func (c *Cluster) NumFabrics() int { return len(c.fabrics) }

// Fabric returns fabric switch f's ASIC; poll it like any switch.
func (c *Cluster) Fabric(f int) *asic.Switch { return c.fabrics[f] }

// SpinePort returns the port index of spine port s on a fabric switch.
func (c *Cluster) SpinePort(s int) int {
	if s < 0 || s >= spinePorts {
		panic(fmt.Sprintf("fabric: spine port %d out of range", s))
	}
	return len(c.racks) + s
}

// Shape returns the common rack topology.
func (c *Cluster) Shape() topo.Rack { return c.shape }

// Now returns the cluster time (all racks advance in lockstep).
func (c *Cluster) Now() simclock.Time { return c.racks[0].Now() }

// Run advances every rack and the fabric tier in lockstep by d.
func (c *Cluster) Run(d simclock.Duration) {
	if d < 0 {
		panic("fabric: negative run duration")
	}
	end := c.Now().Add(d)
	for c.Now().Before(end) {
		step := c.racks[0].Tick()
		if remaining := end.Sub(c.Now()); remaining < step {
			step = remaining
		}
		for _, net := range c.racks {
			net.Run(step) // observers fill c.pending
		}
		for f, sw := range c.fabrics {
			for port, o := range c.pending[f] {
				sw.OfferTx(port, o.bytes, o.profile)
				delete(c.pending[f], port)
			}
			sw.Tick(step)
		}
	}
}
