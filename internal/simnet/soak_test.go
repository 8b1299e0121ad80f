package simnet

import (
	"math"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
	"mburst/internal/topo"
	"mburst/internal/workload"
)

// TestSoakStationarity runs each application for several simulated seconds
// and verifies the traffic process is stationary: the second half's hot
// fraction and mean utilization stay close to the first half's, active
// flows do not accumulate, and the shared buffer never leaks occupancy.
// This guards against slow drifts that short windows would hide.
func TestSoakStationarity(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, app := range workload.Apps {
		app := app
		t.Run(app.String(), func(t *testing.T) {
			n, err := New(Config{
				Rack:   topo.Default(16),
				Params: workload.DefaultParams(app),
				Seed:   2024,
			})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(50 * simclock.Millisecond) // warmup

			half := func() (hotFrac, meanUtil float64) {
				const interval = 25 * simclock.Microsecond
				const dur = 1500 * simclock.Millisecond
				samples := int(simclock.Duration(dur).Ticks(interval))
				nports := n.Rack().NumPorts()
				prev := make([]uint64, nports)
				for p := range prev {
					prev[p] = n.Switch().Port(p).Bytes(asic.TX)
				}
				var hot, total int
				var sum float64
				for i := 0; i < samples; i++ {
					n.Run(interval)
					for p := 0; p < nports; p++ {
						cur := n.Switch().Port(p).Bytes(asic.TX)
						util := float64(cur-prev[p]) * 8 / (float64(n.Switch().Port(p).Speed()) * interval.Seconds())
						prev[p] = cur
						sum += util
						total++
						if util > 0.5 {
							hot++
						}
					}
				}
				return float64(hot) / float64(total), sum / float64(total)
			}

			hot1, mean1 := half()
			flowsMid := n.activeFlows
			hot2, mean2 := half()
			flowsEnd := n.activeFlows

			if mean1 <= 0 || mean2 <= 0 {
				t.Fatalf("degenerate utilization: %v / %v", mean1, mean2)
			}
			if rel := math.Abs(mean2-mean1) / mean1; rel > 0.25 {
				t.Errorf("mean utilization drifted %.0f%%: %v -> %v", rel*100, mean1, mean2)
			}
			if hot1 > 0 {
				if rel := math.Abs(hot2-hot1) / hot1; rel > 0.5 {
					t.Errorf("hot fraction drifted %.0f%%: %v -> %v", rel*100, hot1, hot2)
				}
			}
			// Flow population must stay bounded (no leak): the end count
			// stays within a small factor of the midpoint count.
			if flowsEnd > 3*flowsMid+64 {
				t.Errorf("active flows grew %d -> %d; leak?", flowsMid, flowsEnd)
			}
			// Buffer occupancy equals the sum of queues — nothing leaked.
			var queues float64
			for p := 0; p < n.Rack().NumPorts(); p++ {
				queues += n.Switch().Port(p).QueueBytes()
			}
			if math.Abs(queues-n.Switch().BufferUsed()) > 1 {
				t.Errorf("buffer accounting drifted: queues %v vs used %v", queues, n.Switch().BufferUsed())
			}
		})
	}
}

// TestFlowletStateBounded verifies the periodic garbage collection keeps
// the flowlet balancer's per-flow state from growing without bound over a
// long run.
func TestFlowletStateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	n, err := New(Config{
		Rack:     topo.Default(16),
		Params:   workload.DefaultParams(workload.Cache),
		Seed:     9,
		Balancer: BalanceFlowlet,
	})
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := n.upTx.(interface{ TrackedFlows() int })
	if !ok {
		t.Fatal("balancer does not expose TrackedFlows")
	}
	n.Run(500 * simclock.Millisecond)
	mid := fb.TrackedFlows()
	n.Run(1500 * simclock.Millisecond)
	end := fb.TrackedFlows()
	if mid == 0 {
		t.Fatal("no flowlet state at all")
	}
	// Cache churns thousands of flows per second; without GC the state
	// would grow ~4x over this run. Allow slack for load variation.
	if end > 2*mid+1000 {
		t.Errorf("flowlet state grew %d -> %d over 3x the time; GC ineffective", mid, end)
	}
}
