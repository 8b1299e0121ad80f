package simnet

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

func newNet(t *testing.T, app workload.App, seed uint64) *Net {
	t.Helper()
	n, err := New(Config{
		Rack:   topo.Default(8),
		Params: workload.DefaultParams(app),
		Seed:   seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestDefaultsApplied(t *testing.T) {
	n, err := New(Config{Params: workload.DefaultParams(Web())})
	if err != nil {
		t.Fatal(err)
	}
	if n.Rack().NumServers != 32 {
		t.Errorf("default rack servers = %d", n.Rack().NumServers)
	}
	if n.Switch().BufferBytes() != 1.5*(1<<20) {
		t.Errorf("default buffer = %v", n.Switch().BufferBytes())
	}
}

// Web returns workload.Web; indirection keeps the import of workload
// obviously used in table-driven helpers.
func Web() workload.App { return workload.Web }

func TestInvalidConfigs(t *testing.T) {
	if _, err := New(Config{Params: workload.Params{}}); err == nil {
		t.Error("zero params accepted")
	}
	bad := Config{Params: workload.DefaultParams(workload.Web), Balancer: BalancerMode(99)}
	if _, err := New(bad); err == nil {
		t.Error("unknown balancer accepted")
	}
	negRack := Config{
		Params: workload.DefaultParams(workload.Web),
		Rack:   topo.Rack{NumServers: 2, NumUplinks: 0, ServerSpeed: 1, UplinkSpeed: 1},
	}
	if _, err := New(negRack); err == nil {
		t.Error("invalid rack accepted")
	}
}

func TestRunAdvancesAndCounts(t *testing.T) {
	n := newNet(t, workload.Web, 1)
	n.Run(simclock.Millis(20))
	if n.Now() != simclock.Epoch.Add(simclock.Millis(20)) {
		t.Errorf("Now = %v", n.Now())
	}
	var total uint64
	for p := 0; p < n.Rack().NumPorts(); p++ {
		total += n.Switch().Port(p).Bytes(asic.TX)
	}
	if total == 0 {
		t.Error("no bytes transmitted in 20ms of web traffic")
	}
	if n.Generator().FlowsStarted() == 0 {
		t.Error("no flows ever active")
	}
}

func TestRunPartialTick(t *testing.T) {
	n := newNet(t, workload.Web, 2)
	// 12µs is not a multiple of the 5µs tick; the final partial tick must
	// land exactly on the deadline.
	n.Run(simclock.Micros(12))
	if n.Now() != simclock.Epoch.Add(simclock.Micros(12)) {
		t.Errorf("Now = %v, want 12µs", n.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Run did not panic")
		}
	}()
	n.Run(-1)
}

func TestDeterministicRuns(t *testing.T) {
	fingerprint := func(seed uint64) []uint64 {
		n := newNet(t, workload.Cache, seed)
		for p := 0; p < n.Rack().NumPorts(); p++ {
			if err := n.Switch().CountPackets(p, asic.TX); err != nil {
				t.Fatal(err)
			}
		}
		n.Run(simclock.Millis(30))
		var fp []uint64
		for p := 0; p < n.Rack().NumPorts(); p++ {
			port := n.Switch().Port(p)
			fp = append(fp, port.Bytes(asic.TX), port.Bytes(asic.RX), port.Drops(), port.Packets(asic.TX))
		}
		return fp
	}
	a, b := fingerprint(99), fingerprint(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at counter %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := fingerprint(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical counters")
	}
}

func TestTrafficLandsOnExpectedPorts(t *testing.T) {
	// Web fan-in is remote: uplinks must see RX traffic and downlinks TX.
	n := newNet(t, workload.Web, 3)
	n.Run(simclock.Millis(30))
	rack := n.Rack()
	var upRx, downTx uint64
	for i := 0; i < rack.NumUplinks; i++ {
		upRx += n.Switch().Port(rack.UplinkPort(i)).Bytes(asic.RX)
	}
	for s := 0; s < rack.NumServers; s++ {
		downTx += n.Switch().Port(rack.ServerPort(s)).Bytes(asic.TX)
	}
	if upRx == 0 {
		t.Error("no uplink RX despite remote fan-in")
	}
	if downTx == 0 {
		t.Error("no downlink TX")
	}
}

func TestCacheUplinkEgressDominates(t *testing.T) {
	n := newNet(t, workload.Cache, 4)
	n.Run(simclock.Millis(50))
	rack := n.Rack()
	var upTx, downTx uint64
	for i := 0; i < rack.NumUplinks; i++ {
		upTx += n.Switch().Port(rack.UplinkPort(i)).Bytes(asic.TX)
	}
	for s := 0; s < rack.NumServers; s++ {
		downTx += n.Switch().Port(rack.ServerPort(s)).Bytes(asic.TX)
	}
	if upTx <= downTx {
		t.Errorf("cache rack should send more up (%d) than down (%d) (§6.3)", upTx, downTx)
	}
}

func TestFlowAccountingBalances(t *testing.T) {
	n := newNet(t, workload.Hadoop, 5)
	n.Run(simclock.Millis(30))
	gen := n.Generator()
	if gen.FlowsStarted() == 0 {
		t.Fatal("no flows")
	}
	if got, want := n.activeFlows, int(gen.FlowsStarted()-gen.FlowsEnded()); got != want {
		t.Errorf("active flows = %d, generator says %d", got, want)
	}
	// Rates must be non-negative after all the add/remove churn.
	for p := range n.ports {
		if n.ports[p].tx.rate < 0 || n.ports[p].rx.rate < 0 {
			t.Fatalf("negative residual rate on port %d", p)
		}
	}
}

func TestUtilizationBounded(t *testing.T) {
	// Transmitted bytes can never exceed line rate × time on any port.
	for _, app := range workload.Apps {
		n := newNet(t, app, 6)
		dur := simclock.Millis(40)
		n.Run(dur)
		for p := 0; p < n.Rack().NumPorts(); p++ {
			port := n.Switch().Port(p)
			lineBytes := float64(port.Speed()) / 8 * dur.Seconds()
			if got := float64(port.Bytes(asic.TX)); got > lineBytes*1.001 {
				t.Errorf("%v port %d transmitted %.0f > line capacity %.0f", app, p, got, lineBytes)
			}
		}
	}
}

func TestHadoopGeneratesBufferPressure(t *testing.T) {
	n := newNet(t, workload.Hadoop, 7)
	var maxPeak float64
	for i := 0; i < 20; i++ {
		n.Run(simclock.Millis(5))
		if pk := n.Switch().ReadPeakBufferAndClear(); pk > maxPeak {
			maxPeak = pk
		}
	}
	if maxPeak <= 0 {
		t.Error("hadoop never occupied the shared buffer")
	}
}

func TestBalancerModes(t *testing.T) {
	for _, mode := range []BalancerMode{BalanceFlow, BalanceFlowlet, BalanceRoundRobin} {
		n, err := New(Config{
			Rack:     topo.Default(8),
			Params:   workload.DefaultParams(workload.Cache),
			Seed:     8,
			Balancer: mode,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		n.Run(simclock.Millis(10))
		var upTx uint64
		for i := 0; i < 4; i++ {
			upTx += n.Switch().Port(n.Rack().UplinkPort(i)).Bytes(asic.TX)
		}
		if upTx == 0 {
			t.Errorf("%v: no uplink egress", mode)
		}
	}
	if BalanceFlow.String() != "flow" || BalanceFlowlet.String() != "flowlet" || BalanceRoundRobin.String() != "roundrobin" {
		t.Error("mode names wrong")
	}
}

func TestRoundRobinBalancesBetterThanFlowHash(t *testing.T) {
	imbalance := func(mode BalancerMode) float64 {
		n, err := New(Config{
			Rack:     topo.Default(8),
			Params:   workload.DefaultParams(workload.Hadoop),
			Seed:     9,
			Balancer: mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Run(simclock.Millis(60))
		var tx [4]float64
		for i := 0; i < 4; i++ {
			tx[i] = float64(n.Switch().Port(n.Rack().UplinkPort(i)).Bytes(asic.TX))
		}
		mean := (tx[0] + tx[1] + tx[2] + tx[3]) / 4
		if mean == 0 {
			return 0
		}
		var mad float64
		for _, v := range tx {
			mad += math.Abs(v - mean)
		}
		return mad / 4 / mean
	}
	flow := imbalance(BalanceFlow)
	rr := imbalance(BalanceRoundRobin)
	if rr >= flow {
		t.Errorf("round robin imbalance %v should beat flow hashing %v", rr, flow)
	}
}

// TestSteadyTicksDoNotAllocate holds the data path to zero allocations:
// 1,000 ticks of a loaded rack with no flow event between them. It calls
// applyTick rather than Run so the scheduler — whose flow events
// allocate, and are not the data path — stays out of the count.
func TestSteadyTicksDoNotAllocate(t *testing.T) {
	n := newNet(t, workload.Hadoop, 3)
	n.Run(simclock.Millis(3))
	if n.activeFlows == 0 || n.Switch().Port(0).Bytes(asic.TX) == 0 {
		t.Fatal("rack not loaded")
	}
	allocs := testing.AllocsPerRun(3, func() {
		for i := 0; i < 1000; i++ {
			n.applyTick()
		}
	})
	if allocs != 0 {
		t.Errorf("1,000 steady ticks allocated %v times, want 0", allocs)
	}
}
