// Package asic models the counter-visible behaviour of a data-center switch
// ASIC at the fidelity the paper's analyses require.
//
// The real study polls a production ToR ASIC for three families of state
// (§4.1): cumulative per-port byte/packet counters, per-port packet-size
// histogram bins, and a clear-on-read peak occupancy register over the
// shared packet buffer. This package reproduces exactly those observables:
//
//   - Cumulative RX/TX byte and packet counters per port. Cumulative
//     semantics matter: the paper notes that when the poller misses an
//     interval, throughput is still computable from the next sample's byte
//     count and timestamp (Table 1 caption).
//   - ASIC size-bin counters using the RMON-style bins listed in §5.3.
//   - A shared, dynamically carved egress buffer (Broadcom-style "alpha"
//     dynamic thresholding: a port may queue up to alpha × remaining free
//     bytes). The paper's footnote 1 says bursts are defined on byte counts
//     precisely because buffers are shared and dynamically carved; Fig 10
//     measures this buffer's clear-on-read peak occupancy register.
//   - Per-port egress congestion-discard counters (Figs 1 and 2).
//
// The data path is a fluid model advanced in fixed ticks by the simulator:
// per tick, each egress port receives offered bytes, transmits at line
// rate, and queues the remainder in the shared buffer subject to its
// dynamic threshold. Packet-count and size-bin counters advance
// statistically from each port's current traffic profile, carrying exact
// fractional remainders so long-run packet counts are unbiased. They
// advance only on the directions a reader registered with
// Switch.CountPackets before the first offer; an unregistered direction
// costs one byte add per tick.
//
// Counter access costs (registers vs. memory-backed tables, §4.1) are
// exposed via AccessCost so the collection framework can model why a byte
// counter sustains 25 µs polling while the buffer register needs 50 µs.
package asic

import (
	"fmt"
	"math"

	"mburst/internal/simclock"
)

// Direction selects the RX (received by the switch on that port) or TX
// (transmitted by the switch out of that port) side of a port's counters.
type Direction uint8

const (
	// RX counts traffic arriving at the switch on a port.
	RX Direction = iota
	// TX counts traffic the switch sends out of a port.
	TX
)

// String returns "rx" or "tx".
func (d Direction) String() string {
	if d == RX {
		return "rx"
	}
	return "tx"
}

// NumSizeBins is the number of packet-size histogram bins the ASIC
// maintains per port and direction.
const NumSizeBins = 6

// SizeBinEdges are the RMON-style packet-size bin boundaries in bytes:
// [0,64) [64,128) [128,256) [256,512) [512,1024) [1024,1519).
var SizeBinEdges = [NumSizeBins + 1]float64{0, 64, 128, 256, 512, 1024, 1519}

// SizeBinLabel returns a human-readable label for bin i, e.g. "512-1023".
func SizeBinLabel(i int) string {
	if i < 0 || i >= NumSizeBins {
		panic(fmt.Sprintf("asic: size bin %d out of range", i))
	}
	return fmt.Sprintf("%d-%d", int(SizeBinEdges[i]), int(SizeBinEdges[i+1])-1)
}

// representativeSize is the packet size used to convert bytes to packet
// counts within each bin (midpoint, except full-MTU bin which is dominated
// by 1500-byte packets in practice).
var representativeSize = [NumSizeBins]float64{48, 96, 192, 384, 768, 1500}

// RepresentativeSize returns the byte size used to convert a byte volume in
// bin i into a packet count.
func RepresentativeSize(i int) float64 { return representativeSize[i] }

// TrafficProfile describes how a port's offered bytes are spread across
// packet-size bins: element i is the fraction of BYTES carried by packets
// whose size falls in bin i. A zero profile is invalid for non-zero byte
// offers.
type TrafficProfile [NumSizeBins]float64

// Valid reports whether the profile's fractions are non-negative and sum to
// approximately 1.
func (p TrafficProfile) Valid() bool {
	var sum float64
	for _, f := range p {
		if f < 0 {
			return false
		}
		sum += f
	}
	return sum > 0.999 && sum < 1.001
}

// MeanPacketSize returns the byte-weighted harmonic mean packet size of the
// profile — the average size of a transmitted packet.
func (p TrafficProfile) MeanPacketSize() float64 {
	var pktPerByte float64
	for i, f := range p {
		pktPerByte += f / representativeSize[i]
	}
	if pktPerByte == 0 {
		return 0
	}
	return 1 / pktPerByte
}

// CounterKind identifies a pollable counter family; the collection
// framework uses it to model per-counter access latency.
type CounterKind uint8

const (
	// KindBytes is the cumulative byte counter (fast: register access).
	KindBytes CounterKind = iota
	// KindPackets is the cumulative packet counter (register access).
	KindPackets
	// KindSizeBins is the packet-size histogram (several registers).
	KindSizeBins
	// KindDrops is the egress congestion-discard counter.
	KindDrops
	// KindBufferPeak is the shared-buffer peak-occupancy register
	// (memory-mapped, much slower; §4.1 reports 50 µs).
	KindBufferPeak
	// KindECNMarks counts packets ECN-marked at egress (extension: §7
	// discusses ECN as a congestion signal; DCTCP-style marking fires
	// when the instantaneous queue exceeds a threshold).
	KindECNMarks
	numCounterKinds
)

// String names the counter kind.
func (k CounterKind) String() string {
	switch k {
	case KindBytes:
		return "bytes"
	case KindPackets:
		return "packets"
	case KindSizeBins:
		return "sizebins"
	case KindDrops:
		return "drops"
	case KindBufferPeak:
		return "bufferpeak"
	case KindECNMarks:
		return "ecnmarks"
	default:
		return fmt.Sprintf("CounterKind(%d)", int(k))
	}
}

// accessCost models the ASIC-side latency of reading one instance of each
// counter kind. Values are chosen so the collector reproduces the paper's
// reported minimum sampling intervals (Table 1 and §4.1): byte counters
// sustain 25 µs with ~1% loss, buffer peak needs 50 µs.
var accessCost = [numCounterKinds]simclock.Duration{
	KindBytes:      6 * simclock.Microsecond,
	KindPackets:    6 * simclock.Microsecond,
	KindSizeBins:   9 * simclock.Microsecond,
	KindDrops:      6 * simclock.Microsecond,
	KindBufferPeak: 38 * simclock.Microsecond,
	KindECNMarks:   6 * simclock.Microsecond,
}

// AccessCost returns the modeled ASIC access latency for one read of the
// given counter kind.
func AccessCost(k CounterKind) simclock.Duration {
	if k < 0 || k >= numCounterKinds {
		panic(fmt.Sprintf("asic: unknown counter kind %d", int(k)))
	}
	return accessCost[k]
}

// Plan is a standing offer: nbytes spread per profile, prepared once by a
// caller that offers the same traffic tick after tick and handed to
// OfferTxPlan / OfferRxPlan by pointer. The switch re-derives a port's
// counter increments only when a different Plan arrives or Set has run
// since it last looked, so a steady port costs additions, not divisions.
// The zero Plan offers nothing.
type Plan struct {
	nbytes  float64
	profile TrafficProfile
	gen     uint64 // bumped by Set; (pointer, gen) identifies the contents
}

// Set replaces the plan's traffic.
func (pl *Plan) Set(nbytes float64, profile *TrafficProfile) {
	if nbytes < 0 {
		panic("asic: negative plan")
	}
	pl.nbytes = nbytes
	pl.profile = *profile
	pl.gen++
}

// Bytes returns the bytes one offer of the plan carries.
func (pl *Plan) Bytes() float64 { return pl.nbytes }

// Profile returns the plan's traffic profile.
func (pl *Plan) Profile() TrafficProfile { return pl.profile }

// maxChargePkts bounds one charge's packets per bin: below it the
// float64 → int64 → uint64 split in add is exact.
const maxChargePkts = 1 << 62

// dirCounters is one direction's counter block for a port.
type dirCounters struct {
	// counted turns on the packet and size-bin carries (CountPackets);
	// without it add charges bytes only and packets, bins and binRem stay
	// zero.
	counted bool

	bytes   uint64
	packets uint64
	bins    [NumSizeBins]uint64
	// binRem carries fractional packets per bin so statistical conversion
	// from bytes to packets is unbiased over time.
	binRem [NumSizeBins]float64

	// profile is what the next charge spreads over. It changes only
	// through usePlan / useProfile / blend, which drop the memo below.
	profile TrafficProfile
	// plan and planGen name the Plan profile was copied from (nil when it
	// came by value), so a repeated plan is recognized without comparing
	// fractions.
	plan    *Plan
	planGen uint64

	// The last charge's increments, valid while memoBytes is its nbytes
	// (0 = none: add never charges 0). Between two rate changes a port
	// repeats the same charge every tick, so add re-derives them only
	// when (nbytes, profile) moved.
	memoBytes float64
	byteInc   uint64
	pktInc    [NumSizeBins]float64
}

// usePlan makes pl's profile current.
func (c *dirCounters) usePlan(pl *Plan) {
	if c.plan == pl && c.planGen == pl.gen {
		return
	}
	c.profile = pl.profile
	c.plan, c.planGen = pl, pl.gen
	c.memoBytes = 0
}

// useProfile makes a by-value profile current; a caller repeating the
// same fractions keeps the memo.
func (c *dirCounters) useProfile(profile *TrafficProfile) {
	c.plan = nil
	if !sameBits(&c.profile, profile) {
		c.profile = *profile
		c.memoBytes = 0
	}
}

// sameBits reports whether two profiles are the same bit patterns. It
// stands in for a == b on the by-value offer path, where the array
// comparison is an out-of-line call with two branches per fraction.
func sameBits(a, b *TrafficProfile) bool {
	var diff uint64
	for i := range a {
		diff |= math.Float64bits(a[i]) ^ math.Float64bits(b[i])
	}
	return diff == 0
}

// blend folds a further offer of nbytes into a profile that already
// stands for have bytes this tick, weighting by bytes.
func (c *dirCounters) blend(have, nbytes float64, profile *TrafficProfile) {
	total := have + nbytes
	for i := range c.profile {
		c.profile[i] = (c.profile[i]*have + profile[i]*nbytes) / total
	}
	c.plan = nil
	c.memoBytes = 0
}

// add charges nbytes spread per the current profile into the counter
// block: bytes always, packets and size bins when the direction is
// counted.
//
// It runs per port and direction every 5 µs tick of every campaign and
// allocates nothing (TestTickAllocatesNothing).
func (c *dirCounters) add(nbytes float64) {
	if nbytes <= 0 {
		return
	}
	if nbytes != c.memoBytes {
		c.derive(nbytes)
	}
	c.bytes += c.byteInc
	if !c.counted {
		return
	}
	// Unrolled, and with no skip for an empty bin (a zero increment
	// leaves its remainder and counters as they were): every workload's
	// mix fills all six bins, and six straight-line copies cost less than
	// a loop of six tests.
	c.packets += c.chargeBin(0) + c.chargeBin(1) + c.chargeBin(2) +
		c.chargeBin(3) + c.chargeBin(4) + c.chargeBin(5)
}

// The unrolled sum in add names every bin.
var _ = [1]struct{}{}[NumSizeBins-6]

// chargeBin advances bin i by its memoized increment and returns the
// whole packets that came due. derive bounded the increment to
// [0, maxChargePkts) and binRem stays in [0, 1), so the int64 conversion
// is exact and non-negative.
func (c *dirCounters) chargeBin(i int) uint64 {
	pkts := c.pktInc[i] + c.binRem[i]
	whole := int64(pkts)
	c.binRem[i] = pkts - float64(whole)
	c.bins[i] += uint64(whole)
	return uint64(whole)
}

// derive computes the increments of a charge of nbytes under the current
// profile and memoizes them. A bin without a fraction gets a zero
// increment, which chargeBin adds as the no-op it is.
func (c *dirCounters) derive(nbytes float64) {
	c.byteInc = uint64(nbytes + 0.5)
	for i := range c.profile {
		c.pktInc[i] = 0
		frac := c.profile[i]
		if frac == 0 {
			continue
		}
		inc := nbytes * frac / representativeSize[i]
		if !(inc >= 0 && inc < maxChargePkts) {
			panic("asic: packet increment out of range (negative, NaN or ≥ 2^62)")
		}
		c.pktInc[i] = inc
	}
	c.memoBytes = nbytes
}

// Port is one front-panel port of the switch.
type Port struct {
	id    int
	name  string
	speed uint64 // bits per second

	rx, tx dirCounters

	txDrops uint64 // egress congestion discards, in packets
	dropRem float64

	ecnMarks uint64 // egress ECN-marked packets (extension)
	ecnRem   float64

	queue     float64 // egress backlog bytes held in the shared buffer
	lastOffer float64 // bytes offered since the last Tick; their blend is tx.profile
	lineBytes float64 // line-rate bytes per tick of length Switch.lineTick
}

// ID returns the port's index within its switch.
func (p *Port) ID() int { return p.id }

// Name returns the port's configured name (e.g. "eth1/4" or "uplink2").
func (p *Port) Name() string { return p.name }

// Speed returns the port's line rate in bits per second.
func (p *Port) Speed() uint64 { return p.speed }

// QueueBytes returns the port's current egress backlog in bytes.
func (p *Port) QueueBytes() float64 { return p.queue }

// dir returns the direction's counter block.
func (p *Port) dir(d Direction) *dirCounters {
	if d == RX {
		return &p.rx
	}
	return &p.tx
}

// Bytes returns the cumulative byte counter for the direction.
func (p *Port) Bytes(d Direction) uint64 { return p.dir(d).bytes }

// counted returns the direction's counter block, panicking if its packet
// counters were never switched on: a zero read there would pass for an
// idle port.
func (p *Port) counted(d Direction) *dirCounters {
	c := p.dir(d)
	if !c.counted {
		panic(fmt.Sprintf("asic: %s %s packet counters read without Switch.CountPackets", p.name, d))
	}
	return c
}

// Packets returns the cumulative packet counter for the direction. The
// direction must have been registered with Switch.CountPackets.
func (p *Port) Packets(d Direction) uint64 { return p.counted(d).packets }

// SizeBins returns a snapshot of the cumulative size-bin counters. The
// direction must have been registered with Switch.CountPackets.
func (p *Port) SizeBins(d Direction) [NumSizeBins]uint64 { return p.counted(d).bins }

// Drops returns the cumulative egress congestion-discard packet counter.
func (p *Port) Drops() uint64 { return p.txDrops }

// ECNMarks returns the cumulative count of packets ECN-marked on egress.
func (p *Port) ECNMarks() uint64 { return p.ecnMarks }

// Config configures a Switch.
type Config struct {
	// PortSpeeds lists each port's line rate in bits per second; the slice
	// length defines the port count.
	PortSpeeds []uint64
	// PortNames optionally names each port; defaults to "port<i>".
	PortNames []string
	// BufferBytes is the shared packet buffer capacity. Production ToR
	// ASICs of the paper's era carried 12–16 MB; the default used by the
	// simulator is scaled with port count.
	BufferBytes float64
	// Alpha is the dynamic threshold factor: a port's egress queue may
	// grow up to Alpha × (free buffer). Typical deployments use 0.5–8.
	Alpha float64
	// ECNThresholdBytes enables DCTCP-style marking: traffic arriving at
	// a port whose egress queue exceeds this depth is ECN-marked and the
	// per-port mark counter advances. Zero disables marking.
	ECNThresholdBytes float64
}

// Switch is the ASIC model: a set of ports sharing one packet buffer.
// It is advanced by the simulator one tick at a time and read (possibly
// concurrently with advancing, but never concurrently with itself) by the
// collection framework. The simulation kernel is single-threaded, so no
// locking is needed here.
//
// Byte, drop and ECN counters and the peak register always run. Packet
// and size-bin counters run only on the directions registered with
// CountPackets before any traffic, which is what a poller reading them
// does; reading them elsewhere panics.
type Switch struct {
	ports []Port
	cfg   Config

	// carried is set by the first Offer or Tick; CountPackets refuses
	// after it, so a counted direction has counted from the start.
	carried bool

	bufferUsed float64
	peakUsed   float64 // clear-on-read peak register

	totalDropped uint64

	lineTick simclock.Duration // tick length the ports' lineBytes are for
}

// New builds a Switch from the config. It panics on invalid configuration:
// topology is static and a bad config is a programming error.
func New(cfg Config) *Switch {
	if len(cfg.PortSpeeds) == 0 {
		panic("asic: switch needs at least one port")
	}
	if cfg.BufferBytes <= 0 {
		panic("asic: non-positive buffer size")
	}
	if cfg.Alpha <= 0 {
		panic("asic: non-positive alpha")
	}
	if cfg.PortNames != nil && len(cfg.PortNames) != len(cfg.PortSpeeds) {
		panic("asic: PortNames length mismatch")
	}
	sw := &Switch{cfg: cfg, ports: make([]Port, len(cfg.PortSpeeds))}
	for i := range sw.ports {
		name := fmt.Sprintf("port%d", i)
		if cfg.PortNames != nil {
			name = cfg.PortNames[i]
		}
		if cfg.PortSpeeds[i] == 0 {
			panic(fmt.Sprintf("asic: port %d has zero speed", i))
		}
		sw.ports[i] = Port{id: i, name: name, speed: cfg.PortSpeeds[i]}
	}
	return sw
}

// NumPorts returns the number of ports.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return &s.ports[i] }

// BufferBytes returns the configured shared-buffer capacity.
func (s *Switch) BufferBytes() float64 { return s.cfg.BufferBytes }

// BufferUsed returns the current shared-buffer occupancy in bytes.
func (s *Switch) BufferUsed() float64 { return s.bufferUsed }

// TotalDropped returns the cumulative congestion discards across all ports.
func (s *Switch) TotalDropped() uint64 { return s.totalDropped }

// CountPackets switches on the packet and size-bin counters of port's
// direction d. It must run before the switch carries any traffic (any
// Offer or Tick), so every value those counters return equals what a
// switch counting from the start would return; afterwards it returns an
// error. Registering a direction twice is harmless.
func (s *Switch) CountPackets(port int, d Direction) error {
	if port < 0 || port >= len(s.ports) {
		return fmt.Errorf("asic: CountPackets port %d out of range [0,%d)", port, len(s.ports))
	}
	p := &s.ports[port]
	if c := p.dir(d); !c.counted {
		if s.carried {
			return fmt.Errorf("asic: CountPackets(%s %s) after the switch carried traffic", p.name, d)
		}
		c.counted = true
	}
	return nil
}

// ReadPeakBufferAndClear returns the maximum shared-buffer occupancy in
// bytes observed since the previous call, then resets the register to the
// current occupancy — the clear-on-read semantics of §4.1 that let the
// paper catch bursts even across missed sampling periods.
func (s *Switch) ReadPeakBufferAndClear() float64 {
	peak := s.peakUsed
	s.peakUsed = s.bufferUsed
	return peak
}

// OfferRx charges nbytes of traffic arriving at the switch on port id. RX
// counters are pure accounting in this model: the contended resource is
// the egress side, where OfferTx applies queueing and drops.
func (s *Switch) OfferRx(id int, nbytes float64, profile TrafficProfile) {
	if nbytes < 0 {
		panic("asic: negative rx offer")
	}
	s.carried = true
	c := &s.ports[id].rx
	c.useProfile(&profile)
	c.add(nbytes)
}

// OfferRxPlan is OfferRx for a standing offer.
func (s *Switch) OfferRxPlan(id int, pl *Plan) {
	s.carried = true
	c := &s.ports[id].rx
	c.usePlan(pl)
	c.add(pl.nbytes)
}

// OfferTx records nbytes of traffic destined out of port id during the
// next Tick. Multiple offers to the same port within one tick accumulate.
// The bytes are not transmitted until Tick runs.
func (s *Switch) OfferTx(id int, nbytes float64, profile TrafficProfile) {
	if nbytes < 0 {
		panic("asic: negative tx offer")
	}
	s.carried = true
	if nbytes == 0 {
		return
	}
	p := &s.ports[id]
	if p.lastOffer == 0 {
		p.tx.useProfile(&profile)
	} else {
		p.tx.blend(p.lastOffer, nbytes, &profile)
	}
	p.lastOffer += nbytes
}

// OfferTxPlan is OfferTx for a standing offer.
func (s *Switch) OfferTxPlan(id int, pl *Plan) {
	s.carried = true
	if pl.nbytes == 0 {
		return
	}
	p := &s.ports[id]
	if p.lastOffer == 0 {
		p.tx.usePlan(pl)
	} else {
		p.tx.blend(p.lastOffer, pl.nbytes, &pl.profile)
	}
	p.lastOffer += pl.nbytes
}

// Tick advances the data path by d: each port transmits up to line rate
// from its backlog plus this tick's offered bytes; the remainder is
// admitted to the shared buffer subject to the port's dynamic threshold,
// and anything beyond that is dropped (counted as congestion discards).
// It returns the total bytes transmitted this tick.
//
// It is the data path of every 5 µs tick of every campaign and
// allocates nothing (TestTickAllocatesNothing).
func (s *Switch) Tick(d simclock.Duration) float64 {
	if d <= 0 {
		panic("asic: non-positive tick")
	}
	s.carried = true
	if d != s.lineTick {
		seconds := d.Seconds()
		for i := range s.ports {
			p := &s.ports[i]
			p.lineBytes = float64(p.speed) / 8 * seconds
		}
		s.lineTick = d
	}
	var txTotal float64
	for i := range s.ports {
		p := &s.ports[i]
		lineBytes := p.lineBytes
		offered := p.lastOffer
		avail := p.queue + offered
		transmit := avail
		if transmit > lineBytes {
			transmit = lineBytes
		}
		if transmit > 0 {
			p.tx.add(transmit)
			txTotal += transmit
		}
		leftover := avail - transmit
		var dropBytes float64

		// The transmitted bytes free their share of buffer first.
		drained := p.queue - leftover
		if drained > 0 {
			// Queue shrank: release buffer.
			s.bufferUsed -= drained
			if s.bufferUsed < 0 {
				s.bufferUsed = 0
			}
			p.queue = leftover
		} else if leftover > p.queue {
			// Queue must grow: admit up to the dynamic threshold.
			free := s.cfg.BufferBytes - s.bufferUsed
			if free < 0 {
				free = 0
			}
			limit := s.cfg.Alpha * free
			growth := leftover - p.queue
			room := limit - p.queue
			if room < 0 {
				room = 0
			}
			admitted := growth
			if admitted > room {
				admitted = room
			}
			if admitted > free {
				admitted = free
			}
			dropBytes = growth - admitted
			p.queue += admitted
			s.bufferUsed += admitted
			if dropBytes > 0 {
				s.chargeDrops(p, dropBytes)
			}
		}
		// DCTCP-style ECN (extension): traffic arriving while the egress
		// queue sits above the threshold is marked. Dropped bytes carry
		// no mark — they never leave the switch.
		if s.cfg.ECNThresholdBytes > 0 && p.queue > s.cfg.ECNThresholdBytes {
			if markBytes := offered - dropBytes; markBytes > 0 {
				s.chargeECN(p, markBytes)
			}
		}
		p.lastOffer = 0
	}
	if s.bufferUsed > s.peakUsed {
		s.peakUsed = s.bufferUsed
	}
	return txTotal
}

// chargeECN converts marked bytes into marked packets using the port's
// current profile, carrying the fractional remainder.
func (s *Switch) chargeECN(p *Port, markBytes float64) {
	mean := p.tx.profile.MeanPacketSize()
	if mean <= 0 {
		mean = 1500
	}
	pkts := markBytes/mean + p.ecnRem
	whole := uint64(pkts)
	p.ecnRem = pkts - float64(whole)
	p.ecnMarks += whole
}

// chargeDrops converts dropped bytes into dropped packets using the port's
// current profile, carrying the fractional remainder.
func (s *Switch) chargeDrops(p *Port, dropBytes float64) {
	mean := p.tx.profile.MeanPacketSize()
	if mean <= 0 {
		mean = 1500
	}
	pkts := dropBytes/mean + p.dropRem
	whole := uint64(pkts)
	p.dropRem = pkts - float64(whole)
	p.txDrops += whole
	s.totalDropped += whole
}
