// Package topo describes the rack-level topology the paper measures: a
// Top-of-Rack switch with server-facing downlinks and fabric-facing
// uplinks, as part of the conventional 3-tier Clos network of §4.2.
//
// Machines connect to the ToR over 10 Gbps links; the ToR connects to the
// fabric layer over four 40 Gbps (or 100 Gbps) uplinks, giving the modest
// ~1:4 oversubscription §6.3 mentions. The fabric and spine layers above
// the ToR are out of measurement scope in the paper and are represented in
// the simulator by traffic entering/leaving the uplinks.
//
// Port numbering convention: ports [0, NumServers) are downlinks (one per
// server) and ports [NumServers, NumServers+NumUplinks) are uplinks. All
// other packages rely on this ordering.
package topo

import "fmt"

// Link speeds used throughout the study.
const (
	Gbps10  uint64 = 10_000_000_000
	Gbps40  uint64 = 40_000_000_000
	Gbps100 uint64 = 100_000_000_000
)

// Rack describes one ToR switch and its attached servers.
type Rack struct {
	// NumServers is the number of server-facing downlinks.
	NumServers int
	// ServerSpeed is the downlink line rate in bits per second.
	ServerSpeed uint64
	// NumUplinks is the number of fabric-facing uplinks (4 in the paper).
	NumUplinks int
	// UplinkSpeed is the uplink line rate in bits per second.
	UplinkSpeed uint64
}

// Default returns the rack shape used by the study: n servers at 10 Gbps
// under 4 × 40 Gbps uplinks.
func Default(nServers int) Rack {
	return Rack{
		NumServers:  nServers,
		ServerSpeed: Gbps10,
		NumUplinks:  4,
		UplinkSpeed: Gbps40,
	}
}

// Validate returns an error describing the first invalid field, or nil.
func (r Rack) Validate() error {
	switch {
	case r.NumServers <= 0:
		return fmt.Errorf("topo: NumServers = %d, need > 0", r.NumServers)
	case r.NumUplinks <= 0:
		return fmt.Errorf("topo: NumUplinks = %d, need > 0", r.NumUplinks)
	case r.ServerSpeed == 0:
		return fmt.Errorf("topo: zero ServerSpeed")
	case r.UplinkSpeed == 0:
		return fmt.Errorf("topo: zero UplinkSpeed")
	}
	return nil
}

// NumPorts returns the ToR's total port count.
func (r Rack) NumPorts() int { return r.NumServers + r.NumUplinks }

// IsUplink reports whether port index p is an uplink.
func (r Rack) IsUplink(p int) bool { return p >= r.NumServers && p < r.NumPorts() }

// UplinkPort returns the port index of uplink i in [0, NumUplinks).
func (r Rack) UplinkPort(i int) int {
	if i < 0 || i >= r.NumUplinks {
		panic(fmt.Sprintf("topo: uplink %d out of range", i))
	}
	return r.NumServers + i
}

// ServerPort returns the port index of server i (identity, by convention).
func (r Rack) ServerPort(i int) int {
	if i < 0 || i >= r.NumServers {
		panic(fmt.Sprintf("topo: server %d out of range", i))
	}
	return i
}

// PortSpeeds returns the per-port line rates in port-index order, ready to
// hand to the asic package.
func (r Rack) PortSpeeds() []uint64 {
	speeds := make([]uint64, r.NumPorts())
	for i := 0; i < r.NumServers; i++ {
		speeds[i] = r.ServerSpeed
	}
	for i := 0; i < r.NumUplinks; i++ {
		speeds[r.NumServers+i] = r.UplinkSpeed
	}
	return speeds
}

// PortNames returns human-readable port names ("server3", "uplink1").
func (r Rack) PortNames() []string {
	names := make([]string, r.NumPorts())
	for i := 0; i < r.NumServers; i++ {
		names[i] = fmt.Sprintf("server%d", i)
	}
	for i := 0; i < r.NumUplinks; i++ {
		names[r.NumServers+i] = fmt.Sprintf("uplink%d", i)
	}
	return names
}

// Oversubscription returns the ratio of total downlink to total uplink
// capacity (≈4 for the paper's racks: e.g. 64×10G under 4×40G).
func (r Rack) Oversubscription() float64 {
	up := float64(r.UplinkSpeed) * float64(r.NumUplinks)
	down := float64(r.ServerSpeed) * float64(r.NumServers)
	return down / up
}
