package fabric

import (
	"math"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/rng"
	"mburst/internal/simclock"
	"mburst/internal/simnet"
	"mburst/internal/topo"
	"mburst/internal/wire"
	"mburst/internal/workload"
)

func clusterConfig(nRacks, servers int, apps ...workload.App) Config {
	var cfg Config
	for i := 0; i < nRacks; i++ {
		app := apps[i%len(apps)]
		cfg.RackConfigs = append(cfg.RackConfigs, simnet.Config{
			Rack:   topo.Default(servers),
			Params: workload.DefaultParams(app),
			Seed:   uint64(1000 + i),
			RackID: i,
		})
	}
	return cfg
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty cluster accepted")
	}
	// Mismatched rack shapes are rejected.
	cfg := clusterConfig(1, 8, workload.Web)
	cfg.RackConfigs = append(cfg.RackConfigs, simnet.Config{
		Rack:   topo.Default(16),
		Params: workload.DefaultParams(workload.Web),
	})
	if _, err := New(cfg); err == nil {
		t.Error("mismatched shapes accepted")
	}
	// Invalid rack config propagates.
	bad := clusterConfig(1, 8, workload.Web)
	bad.RackConfigs[0].Params = workload.Params{}
	if _, err := New(bad); err == nil {
		t.Error("invalid rack params accepted")
	}
}

func TestTopologyWiring(t *testing.T) {
	c, err := New(clusterConfig(3, 8, workload.Web))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumRacks() != 3 || c.NumFabrics() != 4 {
		t.Fatalf("racks=%d fabrics=%d", c.NumRacks(), c.NumFabrics())
	}
	// Fabric switch: 3 ToR ports + 2 spine ports.
	sw := c.Fabric(0)
	if sw.NumPorts() != 5 {
		t.Fatalf("fabric ports = %d", sw.NumPorts())
	}
	if sw.Port(2).Name() != "tor2" {
		t.Error("ToR port naming wrong")
	}
	if sw.Port(c.SpinePort(1)).Name() != "spine1" {
		t.Error("spine port naming wrong")
	}
	if sw.Port(c.SpinePort(0)).Speed() != topo.Gbps100 {
		t.Error("spine speed wrong")
	}
	if sw.Port(0).Speed() != topo.Gbps40 {
		t.Error("ToR-facing speed wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range spine port did not panic")
		}
	}()
	c.SpinePort(2)
}

func TestLockstepAdvance(t *testing.T) {
	c, err := New(clusterConfig(2, 8, workload.Cache))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Millis(7))
	if c.Now() != simclock.Epoch.Add(simclock.Millis(7)) {
		t.Errorf("cluster now = %v", c.Now())
	}
	for r := 0; r < 2; r++ {
		if c.Rack(r).Now() != c.Now() {
			t.Errorf("rack %d out of lockstep: %v", r, c.Rack(r).Now())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("negative run did not panic")
		}
	}()
	c.Run(-1)
}

func TestByteConservationAcrossTiers(t *testing.T) {
	// Whatever the ToRs send up their uplinks must appear as fabric RX on
	// the ToR-facing ports, and (after line-rate forwarding) leave via
	// spine ports; the fabric invents no traffic.
	c, err := New(clusterConfig(2, 8, workload.Cache))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Millis(50))
	var torUplinkTx, fabricRackRx, spineTx float64
	shape := c.Shape()
	for r := 0; r < c.NumRacks(); r++ {
		for u := 0; u < shape.NumUplinks; u++ {
			torUplinkTx += float64(c.Rack(r).Switch().Port(shape.UplinkPort(u)).Bytes(asic.TX))
		}
	}
	for f := 0; f < c.NumFabrics(); f++ {
		for r := 0; r < c.NumRacks(); r++ {
			fabricRackRx += float64(c.Fabric(f).Port(r).Bytes(asic.RX))
		}
		for s := 0; s < 2; s++ {
			spineTx += float64(c.Fabric(f).Port(c.SpinePort(s)).Bytes(asic.TX))
		}
	}
	if torUplinkTx == 0 {
		t.Fatal("no uplink traffic")
	}
	// Fabric RX sees the *offered* uplink traffic (pre-queueing at the
	// ToR), so it can only exceed ToR TX by at most the queued remainder.
	if fabricRackRx < torUplinkTx*0.95 {
		t.Errorf("fabric rack RX %v far below ToR uplink TX %v", fabricRackRx, torUplinkTx)
	}
	// Spine TX forwards the same volume, minus what is still queued or
	// dropped at fabric egress.
	if spineTx < fabricRackRx*0.8 || spineTx > fabricRackRx*1.05 {
		t.Errorf("spine TX %v inconsistent with fabric RX %v", spineTx, fabricRackRx)
	}
}

func TestFabricDownstreamMirrorsRackIngress(t *testing.T) {
	c, err := New(clusterConfig(2, 8, workload.Web))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Millis(50))
	shape := c.Shape()
	var torUplinkRx, fabricToTorTx float64
	for r := 0; r < c.NumRacks(); r++ {
		for u := 0; u < shape.NumUplinks; u++ {
			torUplinkRx += float64(c.Rack(r).Switch().Port(shape.UplinkPort(u)).Bytes(asic.RX))
		}
	}
	for f := 0; f < c.NumFabrics(); f++ {
		for r := 0; r < c.NumRacks(); r++ {
			fabricToTorTx += float64(c.Fabric(f).Port(r).Bytes(asic.TX))
		}
	}
	if torUplinkRx == 0 {
		t.Fatal("no downstream traffic")
	}
	ratio := fabricToTorTx / torUplinkRx
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("fabric→ToR TX / ToR uplink RX = %v, want ≈1", ratio)
	}
}

func TestCompareTiersValidation(t *testing.T) {
	c, err := New(clusterConfig(1, 8, workload.Web))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareTiers(c, simclock.Millis(1), simclock.Millis(1), 0); err == nil {
		t.Error("dur < 2×interval accepted")
	}
	if _, err := CompareTiers(c, simclock.Millis(1), 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
}

// TestFabricSmoothsBursts is the tier-comparison headline: spine ports
// aggregate several racks, so their utilization is less variable (lower
// CoV) than ToR server ports even though their mean is higher.
func TestFabricSmoothsBursts(t *testing.T) {
	c, err := New(clusterConfig(4, 16, workload.Hadoop, workload.Cache))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(simclock.Millis(30)) // warmup
	cmp, err := CompareTiers(c, simclock.Millis(300), 300*simclock.Microsecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", cmp.Format())
	if cmp.ToR.MeanUtil <= 0 || cmp.Spine.MeanUtil <= 0 {
		t.Fatal("degenerate tiers")
	}
	if !(cmp.Spine.CoV < cmp.ToR.CoV) {
		t.Errorf("spine CoV %v should be below ToR CoV %v (aggregation smooths)", cmp.Spine.CoV, cmp.ToR.CoV)
	}
	if math.IsNaN(cmp.Uplink.CoV) {
		t.Error("uplink stats NaN")
	}
}

// TestFabricPolling runs the standard collection framework against a
// fabric switch: the spine port's utilization series reconstructed from
// polled cumulative byte counters must agree with the counter deltas read
// directly.
func TestFabricPolling(t *testing.T) {
	c, err := New(clusterConfig(3, 8, workload.Cache))
	if err != nil {
		t.Fatal(err)
	}
	spine := c.SpinePort(0)
	var samples []wire.Sample
	// Rack 0's scheduler is the cluster clock: all racks advance in
	// lockstep, and the fabric ASIC applies its tick right after theirs.
	p, err := collector.NewPoller(collector.PollerConfig{
		Interval:      100 * simclock.Microsecond,
		Counters:      []collector.CounterSpec{{Port: spine, Dir: asic.TX, Kind: asic.KindBytes}},
		DedicatedCore: true,
	}, c.Fabric(0), rng.New(3), collector.EmitterFunc(func(s wire.Sample) { samples = append(samples, s) }))
	if err != nil {
		t.Fatal(err)
	}
	p.Install(c.Rack(0).Scheduler())
	c.Run(100 * simclock.Millisecond)
	if len(samples) < 900 {
		t.Fatalf("only %d fabric samples", len(samples))
	}
	series, err := analysis.UtilizationSeries(samples, c.Fabric(0).Port(spine).Speed())
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, p := range series {
		if p.Util < 0 || p.Util > 1.2 {
			t.Fatalf("implausible fabric utilization %v", p.Util)
		}
		mean += p.Util
	}
	mean /= float64(len(series))
	// Direct check: cumulative counter over the polled span.
	first, last := samples[0], samples[len(samples)-1]
	direct := float64(last.Value-first.Value) * 8 /
		(float64(c.Fabric(0).Port(spine).Speed()) * last.Time.Sub(first.Time).Seconds())
	if mean == 0 || direct == 0 {
		t.Fatal("no spine traffic observed")
	}
	if rel := (mean - direct) / direct; rel > 0.02 || rel < -0.02 {
		t.Errorf("polled mean %v vs direct %v", mean, direct)
	}
}
