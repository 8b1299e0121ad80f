package sweep

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"mburst/internal/core"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/workload"
)

func sweepConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.WindowDur = 60 * simclock.Millisecond
	return cfg
}

func TestSamplingIntervalSweep(t *testing.T) {
	res, err := SamplingInterval(context.Background(), sweepConfig(), workload.Hadoop, []simclock.Duration{
		10 * simclock.Microsecond,
		25 * simclock.Microsecond,
		200 * simclock.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Miss rate decreases with interval.
	if res.Points[0].Metrics["miss-rate-%"] <= res.Points[2].Metrics["miss-rate-%"] {
		t.Errorf("miss rate not decreasing: %v vs %v",
			res.Points[0].Metrics["miss-rate-%"], res.Points[2].Metrics["miss-rate-%"])
	}
	// CPU utilization decreases with interval (§4.1's precision/CPU trade).
	if res.Points[0].Metrics["cpu-busy-%"] <= res.Points[2].Metrics["cpu-busy-%"] {
		t.Error("cpu busy not decreasing with coarser interval")
	}
	// Coarse sampling sees fewer bursts (the §5.1 motivation).
	if res.Points[2].Metrics["bursts"] >= res.Points[1].Metrics["bursts"] {
		t.Errorf("200µs sees %v bursts vs %v at 25µs; coarse should see fewer",
			res.Points[2].Metrics["bursts"], res.Points[1].Metrics["bursts"])
	}
	out := res.Format()
	if !strings.Contains(out, "sampling-interval") || !strings.Contains(out, "miss-rate-%") {
		t.Errorf("format:\n%s", out)
	}
}

// TestSamplingIntervalSimulatesOneRack: every interval of the sweep polls
// the same rack-window, so the five cells share one simulated rack.
func TestSamplingIntervalSimulatesOneRack(t *testing.T) {
	cfg := sweepConfig()
	cfg.Metrics = obs.NewRegistry()
	intervals := []simclock.Duration{
		10 * simclock.Microsecond,
		25 * simclock.Microsecond,
		50 * simclock.Microsecond,
		100 * simclock.Microsecond,
		200 * simclock.Microsecond,
	}
	if _, err := SamplingInterval(context.Background(), cfg, workload.Web, intervals); err != nil {
		t.Fatal(err)
	}
	cells := cfg.Metrics.Counter("mburst_runner_cells_completed_total", "").Value()
	windows := cfg.Metrics.Counter("mburst_campaign_windows_total", "").Value()
	if cells != 5 || windows != 1 {
		t.Errorf("%d cells on %d simulated rack-windows, want 5 on 1", cells, windows)
	}
}

func TestBufferSizeSweep(t *testing.T) {
	res, err := BufferSize(context.Background(), sweepConfig(), workload.Hadoop, []float64{64 << 10, 1536 << 10, 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Smaller buffers drop (weakly) more.
	small := res.Points[0].Metrics["drops"]
	large := res.Points[2].Metrics["drops"]
	if small < large {
		t.Errorf("64KB drops (%v) should be >= 16MB drops (%v)", small, large)
	}
	if small == 0 {
		t.Error("tiny buffer produced no drops under hadoop")
	}
	// Peak occupancy fraction shrinks as the buffer grows.
	if res.Points[0].Metrics["peak-frac"] < res.Points[2].Metrics["peak-frac"] {
		t.Error("peak fraction should shrink with buffer size")
	}
}

func TestOversubscriptionSweep(t *testing.T) {
	cfg := sweepConfig()
	cfg.Windows = 1
	res, err := Oversubscription(context.Background(), cfg, workload.Cache, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Metrics["oversub"] != 0.5 || res.Points[1].Metrics["oversub"] != 2 {
		t.Errorf("oversub values: %v %v",
			res.Points[0].Metrics["oversub"], res.Points[1].Metrics["oversub"])
	}
	// More servers → higher mean uplink utilization for cache.
	if res.Points[1].Metrics["uplink-mean-%"] <= res.Points[0].Metrics["uplink-mean-%"] {
		t.Errorf("uplink mean should grow with oversubscription: %v vs %v",
			res.Points[0].Metrics["uplink-mean-%"], res.Points[1].Metrics["uplink-mean-%"])
	}
}

func TestHotThresholdSweep(t *testing.T) {
	res, err := HotThreshold(context.Background(), sweepConfig(), workload.Hadoop, []float64{0.3, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Hot fraction is monotone decreasing in the threshold.
	prev := res.Points[0].Metrics["hot-%"]
	for _, p := range res.Points[1:] {
		if p.Metrics["hot-%"] > prev {
			t.Errorf("hot fraction not monotone: %v after %v", p.Metrics["hot-%"], prev)
		}
		prev = p.Metrics["hot-%"]
	}
	// §5.4's robustness: the p90 burst duration stays in the same decade
	// across thresholds.
	lo := res.Points[0].Metrics["p90-burst-µs"]
	hi := res.Points[2].Metrics["p90-burst-µs"]
	if lo > 0 && hi > 0 && (lo/hi > 10 || hi/lo > 10) {
		t.Errorf("p90 unstable across thresholds: %v vs %v", lo, hi)
	}
}

// TestHotThresholdMatchesParentGolden holds HotThreshold to the points the
// commit before it stopped materializing the campaign (ecc88ec) computed
// for the same config. %v prints every digit of every float, so the golden
// pins the per-cell reduction and the window-order accumulation of hot-%
// exactly. The file was written by that commit and is never regenerated.
func TestHotThresholdMatchesParentGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden was written on amd64; on %s Go may fuse a multiply and an add into one rounding", runtime.GOARCH)
	}
	cfg := sweepConfig()
	cfg.Racks, cfg.Windows = 2, 2
	res, err := HotThreshold(context.Background(), cfg, workload.Hadoop, []float64{0.2, 0.3, 0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, p := range res.Points {
		fmt.Fprintf(&got, "%v\n", p)
	}
	want, err := os.ReadFile("testdata/hot_threshold_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("HotThreshold points:\n%swant the parent commit's:\n%s", got.String(), want)
	}
}
