// Package simnet is the rack simulator: it binds a workload generator, the
// rack topology, ECMP uplink selection, and the switch ASIC model into a
// single deterministic discrete-time machine.
//
// Traffic is fluid at a fixed native tick (default 5 µs — finer than the
// paper's finest 25 µs sampling so that sub-sample µbursts exist, §5.1):
// active flows contribute rate × tick bytes to their ports each tick, the
// ASIC transmits/queues/drops, and counter-reading components (the
// collection framework) observe the ASIC through scheduler events
// interleaved with ticks.
//
// Port usage per flow kind (see workload.FlowKind):
//
//	FlowIn    fabric → server: RX on an uplink chosen by the fabric-side
//	          hasher, TX on the server's downlink.
//	FlowOut   server → fabric: RX on the server's downlink, TX on an
//	          uplink chosen by the ToR's balancer (the §6.1 subject).
//	FlowIntra peer → server inside the rack: RX on the peer's downlink,
//	          TX on the server's downlink.
package simnet

import (
	"fmt"

	"mburst/internal/asic"
	"mburst/internal/ecmp"
	"mburst/internal/eventq"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// BalancerMode selects the uplink balancing scheme for rack egress.
type BalancerMode int

const (
	// BalanceFlow is production flow-level ECMP (static consistent hash).
	BalanceFlow BalancerMode = iota
	// BalanceFlowlet re-picks paths after idle gaps (§7 ablation).
	BalanceFlowlet
	// BalanceRoundRobin is the idealized per-pick rotation (§7 ablation).
	BalanceRoundRobin
)

// String names the mode.
func (m BalancerMode) String() string {
	switch m {
	case BalanceFlow:
		return "flow"
	case BalanceFlowlet:
		return "flowlet"
	case BalanceRoundRobin:
		return "roundrobin"
	default:
		return fmt.Sprintf("BalancerMode(%d)", int(m))
	}
}

// Config configures one simulated rack.
type Config struct {
	// Rack is the physical shape; zero value means topo.Default(32).
	Rack topo.Rack
	// Params is the workload; zero value is rejected (use
	// workload.DefaultParams).
	Params workload.Params
	// Tick is the native simulation step (default 5 µs).
	Tick simclock.Duration
	// BufferBytes is the ToR's shared buffer (default 4 MB).
	BufferBytes float64
	// Alpha is the dynamic-threshold factor (default 2).
	Alpha float64
	// Seed makes the run reproducible.
	Seed uint64
	// RackID distinguishes racks within a campaign (affects flow IPs).
	RackID int
	// LoadScale scales offered load (diurnal factor; default 1).
	LoadScale float64
	// Balancer selects the uplink balancing scheme (default BalanceFlow).
	Balancer BalancerMode
	// FlowletGap is the idle gap that splits flowlets in BalanceFlowlet
	// mode (default 500 µs).
	FlowletGap simclock.Duration
	// ECNThresholdBytes enables DCTCP-style marking in the ASIC
	// (extension; 0 disables).
	ECNThresholdBytes float64
}

func (c *Config) applyDefaults() {
	if c.Rack.NumServers == 0 {
		c.Rack = topo.Default(32)
	}
	if c.Tick == 0 {
		c.Tick = 5 * simclock.Microsecond
	}
	if c.BufferBytes == 0 {
		// A shallow-buffer ToR share: production chips of the paper's era
		// carried ~12 MB across ~100+ ports; 1.5 MB approximates the slice
		// available to a 36-port rack under typical pool partitioning.
		c.BufferBytes = 1.5 * (1 << 20)
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.LoadScale == 0 {
		c.LoadScale = 1
	}
	if c.FlowletGap == 0 {
		c.FlowletGap = 500 * simclock.Microsecond
	}
}

// Net is a running rack simulation.
type Net struct {
	cfg   Config
	rack  topo.Rack
	sched *eventq.Scheduler
	sw    *asic.Switch
	gen   *workload.Generator

	upTx ecmp.Balancer // ToR's egress balancer (measured in Fig 7a)
	upRx ecmp.Balancer // fabric's arrival spread (measured in Fig 7b)

	ports []portTraffic

	bindings map[*workload.Flow]binding

	activeFlows int
	maxActive   int

	txObserver TrafficObserver
	rxObserver TrafficObserver
}

// TrafficObserver receives every port's offered traffic once per tick,
// before the ASIC applies queueing. Measurement baselines (e.g.
// sFlow-style packet sampling, internal/pktsample) and higher network
// tiers (internal/fabric) tap the data path here.
type TrafficObserver func(now simclock.Time, port int, nbytes float64, profile asic.TrafficProfile)

type binding struct {
	rxPort, txPort int
}

// portTraffic is what the active flows offer one port.
type portTraffic struct {
	tx, rx dirTraffic
}

// dirTraffic is one port-direction's offered traffic and its charge plan:
// everything a full tick's charge derives from the rate, kept until the
// rate moves. addRate sets dirty; the data path asks for current().
type dirTraffic struct {
	rate  float64                   // sum of active flows' rates, bytes/s
	sum   [asic.NumSizeBins]float64 // their rate-weighted profile sum
	dirty bool                      // rate or sum moved since plan was built
	plan  asic.Plan                 // one full tick of rate, normalized sum
}

// current returns the plan for ticks of length tick, rebuilt from rate and
// sum if they moved.
func (d *dirTraffic) current(tick simclock.Duration) *asic.Plan {
	if d.dirty {
		profile := normalizeProfile(&d.sum)
		d.plan.Set(d.rate*tick.Seconds(), &profile)
		d.dirty = false
	}
	return &d.plan
}

// New builds a simulation from the config.
func New(cfg Config) (*Net, error) {
	cfg.applyDefaults()
	if err := cfg.Rack.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tick <= 0 {
		return nil, fmt.Errorf("simnet: non-positive tick %v", cfg.Tick)
	}
	seed := rng.New(cfg.Seed)
	gen, err := workload.NewGenerator(cfg.Params, cfg.Rack, cfg.RackID, cfg.LoadScale, seed.Split("workload"))
	if err != nil {
		return nil, err
	}

	n := cfg.Rack.NumPorts()
	net := &Net{
		cfg:   cfg,
		rack:  cfg.Rack,
		sched: eventq.NewScheduler(),
		sw: asic.New(asic.Config{
			PortSpeeds:        cfg.Rack.PortSpeeds(),
			PortNames:         cfg.Rack.PortNames(),
			BufferBytes:       cfg.BufferBytes,
			Alpha:             cfg.Alpha,
			ECNThresholdBytes: cfg.ECNThresholdBytes,
		}),
		gen:      gen,
		ports:    make([]portTraffic, n),
		bindings: make(map[*workload.Flow]binding),
	}

	hashSeed := seed.Split("ecmp").Uint64()
	switch cfg.Balancer {
	case BalanceFlow:
		net.upTx = ecmp.NewFlowHasher(cfg.Rack.NumUplinks, hashSeed)
	case BalanceFlowlet:
		fb := ecmp.NewFlowletBalancer(cfg.Rack.NumUplinks, hashSeed, cfg.FlowletGap)
		net.upTx = fb
		// Long campaigns would otherwise accumulate per-flow state for
		// every 5-tuple ever seen; shed flows idle for many gaps.
		var gc func(simclock.Time)
		gc = func(now simclock.Time) {
			cutoff := now.Add(-100 * cfg.FlowletGap)
			if cutoff > 0 {
				fb.Forget(cutoff)
			}
			net.sched.After(50*cfg.FlowletGap, gc)
		}
		net.sched.After(50*cfg.FlowletGap, gc)
	case BalanceRoundRobin:
		net.upTx = ecmp.NewRoundRobin(cfg.Rack.NumUplinks)
	default:
		return nil, fmt.Errorf("simnet: unknown balancer mode %v", cfg.Balancer)
	}
	// The fabric hashes arriving flows independently of our ToR.
	net.upRx = ecmp.NewFlowHasher(cfg.Rack.NumUplinks, seed.Split("fabric").Uint64())

	gen.Install(net.sched, net)
	return net, nil
}

// Scheduler returns the simulation's event scheduler; components such as
// the collector register their polling events on it.
func (n *Net) Scheduler() *eventq.Scheduler { return n.sched }

// Switch returns the ASIC model for counter reads.
func (n *Net) Switch() *asic.Switch { return n.sw }

// Rack returns the topology.
func (n *Net) Rack() topo.Rack { return n.rack }

// Now returns the current simulated time.
func (n *Net) Now() simclock.Time { return n.sched.Now() }

// Tick returns the native tick duration.
func (n *Net) Tick() simclock.Duration { return n.cfg.Tick }

// ActiveFlows returns the number of currently active flows.
func (n *Net) ActiveFlows() int { return n.activeFlows }

// MaxActiveFlows returns the high-water mark of concurrent flows.
func (n *Net) MaxActiveFlows() int { return n.maxActive }

// Generator exposes the workload generator (for flow accounting in tests).
func (n *Net) Generator() *workload.Generator { return n.gen }

// StartFlow implements workload.Sink.
func (n *Net) StartFlow(f *workload.Flow) {
	if _, dup := n.bindings[f]; dup {
		panic("simnet: flow started twice")
	}
	var b binding
	switch f.Kind {
	case workload.FlowIn:
		b.rxPort = n.rack.UplinkPort(n.upRx.Pick(f.Key, n.sched.Now()))
		b.txPort = n.rack.ServerPort(f.Server)
	case workload.FlowOut:
		b.rxPort = n.rack.ServerPort(f.Server)
		b.txPort = n.rack.UplinkPort(n.upTx.Pick(f.Key, n.sched.Now()))
	case workload.FlowIntra:
		b.rxPort = n.rack.ServerPort(f.Peer)
		b.txPort = n.rack.ServerPort(f.Server)
	default:
		panic(fmt.Sprintf("simnet: unknown flow kind %v", f.Kind))
	}
	n.bindings[f] = b
	n.addRate(b, f, +1)
	n.activeFlows++
	if n.activeFlows > n.maxActive {
		n.maxActive = n.activeFlows
	}
}

// EndFlow implements workload.Sink.
func (n *Net) EndFlow(f *workload.Flow) {
	b, ok := n.bindings[f]
	if !ok {
		panic("simnet: ending unknown flow")
	}
	delete(n.bindings, f)
	n.addRate(b, f, -1)
	n.activeFlows--
}

func (n *Net) addRate(b binding, f *workload.Flow, sign float64) {
	r := sign * f.Rate
	rx, tx := &n.ports[b.rxPort].rx, &n.ports[b.txPort].tx
	rx.rate += r
	tx.rate += r
	for i, frac := range f.Profile {
		rx.sum[i] += r * frac
		tx.sum[i] += r * frac
	}
	// Clamp float drift after removals.
	if sign < 0 {
		if rx.rate < 0 {
			rx.rate = 0
		}
		if tx.rate < 0 {
			tx.rate = 0
		}
	}
	rx.dirty, tx.dirty = true, true
}

// Run advances the simulation by d, processing scheduled events and
// applying the fluid data path every tick.
func (n *Net) Run(d simclock.Duration) {
	if d < 0 {
		panic("simnet: negative run duration")
	}
	end := n.sched.Now().Add(d)
	for n.sched.Now().Before(end) {
		step := n.cfg.Tick
		if remaining := end.Sub(n.sched.Now()); remaining < step {
			step = remaining
		}
		tickEnd := n.sched.Now().Add(step)
		n.sched.RunUntil(tickEnd)
		if step == n.cfg.Tick {
			n.applyTick()
		} else {
			n.applyPartial(step)
		}
	}
}

// SetTxObserver installs an egress traffic observer (nil to remove).
func (n *Net) SetTxObserver(obs TrafficObserver) { n.txObserver = obs }

// SetRxObserver installs an ingress traffic observer (nil to remove).
// For uplink ports this is the fabric→ToR direction, which is how the
// fabric tier learns what it must have forwarded down to this rack.
func (n *Net) SetRxObserver(obs TrafficObserver) { n.rxObserver = obs }

// applyTick charges each port's accumulated rate into the ASIC and
// advances the data path one full tick.
//
// Between two addRate calls on a port-direction everything a full tick
// offers is constant, so it lives in that direction's plan: addRate (the
// only writer of rate and sum) marks the direction dirty, applyTick
// rebuilds a dirty plan just before offering it, and the switch, handed
// the same plan again, repeats the previous tick's counter increments.
// A step shorter than Tick — the tail of a Run that is not a whole number
// of ticks — carries different bytes, so Run sends it through
// applyPartial, which offers rate × step by value instead of the plan.
//
// It runs every 5 µs tick of every campaign and allocates nothing when
// no observer is installed (TestSteadyTicksDoNotAllocate).
func (n *Net) applyTick() {
	now := n.sched.Now()
	for p := range n.ports {
		if d := &n.ports[p].tx; d.rate > 1e-9 {
			pl := d.current(n.cfg.Tick)
			if n.txObserver != nil {
				n.txObserver(now, p, pl.Bytes(), pl.Profile())
			}
			n.sw.OfferTxPlan(p, pl)
		}
		if d := &n.ports[p].rx; d.rate > 1e-9 {
			pl := d.current(n.cfg.Tick)
			if n.rxObserver != nil {
				n.rxObserver(now, p, pl.Bytes(), pl.Profile())
			}
			n.sw.OfferRxPlan(p, pl)
		}
	}
	n.sw.Tick(n.cfg.Tick)
}

// applyPartial is applyTick for a step shorter than Tick: the plans'
// profiles, rate × step bytes.
func (n *Net) applyPartial(step simclock.Duration) {
	sec := step.Seconds()
	now := n.sched.Now()
	for p := range n.ports {
		if d := &n.ports[p].tx; d.rate > 1e-9 {
			profile := d.current(n.cfg.Tick).Profile()
			if n.txObserver != nil {
				n.txObserver(now, p, d.rate*sec, profile)
			}
			n.sw.OfferTx(p, d.rate*sec, profile)
		}
		if d := &n.ports[p].rx; d.rate > 1e-9 {
			profile := d.current(n.cfg.Tick).Profile()
			if n.rxObserver != nil {
				n.rxObserver(now, p, d.rate*sec, profile)
			}
			n.sw.OfferRx(p, d.rate*sec, profile)
		}
	}
	n.sw.Tick(step)
}

// normalizeProfile converts a rate-weighted profile sum into fractions.
// Negative drift from float subtraction is clamped to zero and the vector
// renormalized.
func normalizeProfile(sum *[asic.NumSizeBins]float64) asic.TrafficProfile {
	var total float64
	var p asic.TrafficProfile
	for i, v := range sum {
		if v < 0 {
			v = 0
		}
		p[i] = v
		total += v
	}
	if total <= 0 {
		// Degenerate: all drift; attribute to full-size packets.
		p = asic.TrafficProfile{}
		p[asic.NumSizeBins-1] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}
