package simnet

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mburst/internal/asic"
	"mburst/internal/ecmp"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// refApplyTick is applyTick as it stood before charge plans: every port's
// profile re-normalized and its bytes re-multiplied on every step, handed
// to the switch by value.
func (n *Net) refApplyTick(step simclock.Duration) {
	sec := step.Seconds()
	for p := range n.ports {
		if r := n.ports[p].tx.rate; r > 1e-9 {
			profile := refNormalizeProfile(n.ports[p].tx.sum, r)
			if n.txObserver != nil {
				n.txObserver(n.sched.Now(), p, r*sec, profile)
			}
			n.sw.OfferTx(p, r*sec, profile)
		}
		if r := n.ports[p].rx.rate; r > 1e-9 {
			profile := refNormalizeProfile(n.ports[p].rx.sum, r)
			if n.rxObserver != nil {
				n.rxObserver(n.sched.Now(), p, r*sec, profile)
			}
			n.sw.OfferRx(p, r*sec, profile)
		}
	}
	n.sw.Tick(step)
}

func refNormalizeProfile(sum [asic.NumSizeBins]float64, _ float64) asic.TrafficProfile {
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
		p = asic.TrafficProfile{}
		p[asic.NumSizeBins-1] = 1
		return p
	}
	for i := range p {
		p[i] /= total
	}
	return p
}

// refRun is Run over refApplyTick.
func (n *Net) refRun(d simclock.Duration) {
	end := n.sched.Now().Add(d)
	for n.sched.Now().Before(end) {
		step := tick
		if remaining := end.Sub(n.sched.Now()); remaining < step {
			step = remaining
		}
		n.sched.RunUntil(n.sched.Now().Add(step))
		n.refApplyTick(step)
	}
}

type opKind int

const (
	opStart opKind = iota
	opEnd
	opBounce // end a flow and start it again without a tick between
	opRun
)

// netOp is one step of a generated schedule: a flow event on flows[flow]
// (skipped when the flow is not in the state the event needs) or a run of d.
type netOp struct {
	kind opKind
	flow int
	d    simclock.Duration
}

// schedule is a generated sequence of flow events and runs, on top of
// whatever the rack's own workload generator does.
type schedule struct {
	seed      uint64
	ecn       bool
	observers bool
	flows     []workload.Flow
	ops       []netOp
}

var refRack = topo.Default(6)

func genFlow(r *rand.Rand, i int) workload.Flow {
	f := workload.Flow{
		Key:    ecmp.FlowKey{SrcIP: r.Uint32(), DstIP: r.Uint32(), SrcPort: uint16(i), DstPort: 80, Proto: 6},
		Kind:   workload.FlowKind(r.Intn(3)),
		Server: r.Intn(refRack.NumServers),
		Peer:   r.Intn(refRack.NumServers),
		// Up to 1.5× a downlink, so single flows can push a port into
		// backlog, drops and ECN marks.
		Rate: r.Float64() * 1.5 * float64(refRack.ServerSpeed) / 8,
	}
	var total float64
	for b := range f.Profile {
		if r.Intn(3) > 0 {
			f.Profile[b] = r.Float64()
			total += f.Profile[b]
		}
	}
	if total == 0 {
		f.Profile[asic.NumSizeBins-1], total = 1, 1
	}
	for b := range f.Profile {
		f.Profile[b] /= total
	}
	return f
}

// Generate implements quick.Generator.
func (schedule) Generate(r *rand.Rand, size int) reflect.Value {
	s := schedule{seed: r.Uint64(), ecn: r.Intn(2) == 0, observers: r.Intn(2) == 0}
	for i := 0; i < 4+r.Intn(8); i++ {
		s.flows = append(s.flows, genFlow(r, i))
	}
	tick := 5 * simclock.Microsecond
	for i := 0; i < 20+size; i++ {
		op := netOp{kind: opKind(r.Intn(4)), flow: r.Intn(len(s.flows))}
		switch r.Intn(3) {
		case 0: // whole ticks
			op.d = tick * simclock.Duration(1+r.Intn(40))
		case 1: // a partial step at the end
			op.d = tick*simclock.Duration(r.Intn(40)) + simclock.Duration(1+r.Intn(int(tick)-1))
		case 2: // shorter than one tick
			op.d = simclock.Duration(1 + r.Intn(int(tick)-1))
		}
		s.ops = append(s.ops, op)
	}
	return reflect.ValueOf(s)
}

// tapLog records what a TrafficObserver saw, bit for bit.
type tapLog []uint64

func (l *tapLog) observe(now simclock.Time, port int, nbytes float64, profile asic.TrafficProfile) {
	*l = append(*l, uint64(now), uint64(port), math.Float64bits(nbytes))
	for _, f := range profile {
		*l = append(*l, math.Float64bits(f))
	}
}

// refNet is one of the two simulations a schedule drives, with its own
// copies of the flows (bindings are keyed by flow pointer).
type refNet struct {
	n      *Net
	flows  []workload.Flow
	active []bool
	tx, rx tapLog
}

func newRefNet(t *testing.T, s schedule) *refNet {
	cfg := Config{Rack: refRack, Params: workload.DefaultParams(workload.Hadoop), Seed: s.seed}
	if s.ecn {
		cfg.ECNThresholdBytes = 30_000
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// state reads every port's packet counters, so both directions count.
	for p := 0; p < n.Switch().NumPorts(); p++ {
		for _, d := range []asic.Direction{asic.RX, asic.TX} {
			if err := n.Switch().CountPackets(p, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	rn := &refNet{n: n, flows: append([]workload.Flow(nil), s.flows...), active: make([]bool, len(s.flows))}
	if s.observers {
		n.SetTxObserver(rn.tx.observe)
		n.SetRxObserver(rn.rx.observe)
	}
	return rn
}

func (rn *refNet) apply(op netOp, run func(simclock.Duration)) {
	f := &rn.flows[op.flow]
	switch op.kind {
	case opStart:
		if !rn.active[op.flow] {
			rn.n.StartFlow(f)
			rn.active[op.flow] = true
		}
	case opEnd:
		if rn.active[op.flow] {
			rn.n.EndFlow(f)
			rn.active[op.flow] = false
		}
	case opBounce:
		if rn.active[op.flow] {
			rn.n.EndFlow(f)
			rn.n.StartFlow(f)
		}
	case opRun:
		run(op.d)
	}
}

// portState is everything the collection framework can read off a port.
type portState struct {
	bytes, packets [2]uint64
	bins           [2][asic.NumSizeBins]uint64
	drops, ecn     uint64
	queue          uint64 // float bits
}

func (rn *refNet) state() (ports []portState, peak, used uint64, dropped uint64) {
	sw := rn.n.Switch()
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		ports = append(ports, portState{
			bytes:   [2]uint64{p.Bytes(asic.RX), p.Bytes(asic.TX)},
			packets: [2]uint64{p.Packets(asic.RX), p.Packets(asic.TX)},
			bins:    [2][asic.NumSizeBins]uint64{p.SizeBins(asic.RX), p.SizeBins(asic.TX)},
			drops:   p.Drops(),
			ecn:     p.ECNMarks(),
			queue:   math.Float64bits(p.QueueBytes()),
		})
	}
	return ports, math.Float64bits(sw.ReadPeakBufferAndClear()), math.Float64bits(sw.BufferUsed()), sw.TotalDropped()
}

// TestApplyTickMatchesReference: under generated schedules of flow events
// and runs — whole ticks, partial steps, observers, ECN, a flow bounced
// within one tick — the charge-plan data path leaves every port's
// counters, queue, drops and ECN marks, the peak register and what the
// observers saw bit-identical to refApplyTick after every step.
func TestApplyTickMatchesReference(t *testing.T) {
	var sawDrops, sawECN, sawPartial bool
	check := func(s schedule) bool {
		got, want := newRefNet(t, s), newRefNet(t, s)
		for k, op := range s.ops {
			got.apply(op, got.n.Run)
			want.apply(op, want.n.refRun)
			gp, gpeak, gused, gdrop := got.state()
			wp, wpeak, wused, wdrop := want.state()
			if !reflect.DeepEqual(gp, wp) || gpeak != wpeak || gused != wused || gdrop != wdrop {
				t.Logf("diverged after op %d (%+v)", k, op)
				return false
			}
			if !reflect.DeepEqual(got.tx, want.tx) || !reflect.DeepEqual(got.rx, want.rx) {
				t.Logf("observers diverged after op %d (%+v)", k, op)
				return false
			}
			if got.n.Now() != want.n.Now() {
				t.Logf("clocks diverged after op %d (%+v)", k, op)
				return false
			}
			sawPartial = sawPartial || (op.kind == opRun && op.d%tick != 0)
			sawDrops = sawDrops || gdrop > 0
			for _, p := range gp {
				sawECN = sawECN || p.ecn > 0
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if !sawDrops || !sawECN || !sawPartial {
		t.Errorf("schedules too tame to mean much: drops=%v ecn=%v partial step=%v", sawDrops, sawECN, sawPartial)
	}
}
