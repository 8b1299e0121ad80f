package topo

import (
	"testing"
	"testing/quick"
)

func TestDefaultRack(t *testing.T) {
	r := Default(16)
	if err := r.Validate(); err != nil {
		t.Fatalf("default rack invalid: %v", err)
	}
	if r.NumPorts() != 20 {
		t.Errorf("NumPorts = %d", r.NumPorts())
	}
	if r.NumUplinks != 4 || r.UplinkSpeed != Gbps40 || r.ServerSpeed != Gbps10 {
		t.Errorf("unexpected defaults: %+v", r)
	}
	// 16 × 10G over 4 × 40G = 1:1; the paper's racks are larger.
	if got := r.Oversubscription(); got != 1 {
		t.Errorf("oversubscription = %v", got)
	}
	if got := Default(64).Oversubscription(); got != 4 {
		t.Errorf("64-server oversubscription = %v, want 4 (1:4 as in §6.3)", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Rack{
		{NumServers: 0, NumUplinks: 4, ServerSpeed: 1, UplinkSpeed: 1},
		{NumServers: 4, NumUplinks: 0, ServerSpeed: 1, UplinkSpeed: 1},
		{NumServers: 4, NumUplinks: 4, ServerSpeed: 0, UplinkSpeed: 1},
		{NumServers: 4, NumUplinks: 4, ServerSpeed: 1, UplinkSpeed: 0},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("case %d validated", i)
		}
	}
}

// isDownlink reports whether port index p is a server-facing downlink.
func isDownlink(r Rack, p int) bool { return p >= 0 && p < r.NumServers }

func TestPortClassification(t *testing.T) {
	r := Default(8)
	for p := 0; p < 8; p++ {
		if !isDownlink(r, p) || r.IsUplink(p) {
			t.Errorf("port %d misclassified", p)
		}
	}
	for p := 8; p < 12; p++ {
		if isDownlink(r, p) || !r.IsUplink(p) {
			t.Errorf("port %d misclassified", p)
		}
	}
	if isDownlink(r, -1) || r.IsUplink(12) {
		t.Error("out-of-range ports classified as valid")
	}
	if r.UplinkPort(0) != 8 || r.UplinkPort(3) != 11 {
		t.Error("uplink port mapping wrong")
	}
	if r.ServerPort(5) != 5 {
		t.Error("server port mapping wrong")
	}
}

func TestPortRangePanics(t *testing.T) {
	r := Default(4)
	for _, f := range []func(){
		func() { r.UplinkPort(4) },
		func() { r.UplinkPort(-1) },
		func() { r.ServerPort(4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range port did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSpeedsAndNames(t *testing.T) {
	r := Default(2)
	speeds := r.PortSpeeds()
	want := []uint64{Gbps10, Gbps10, Gbps40, Gbps40, Gbps40, Gbps40}
	if len(speeds) != len(want) {
		t.Fatalf("speeds = %v", speeds)
	}
	for i := range want {
		if speeds[i] != want[i] {
			t.Errorf("speed[%d] = %d", i, speeds[i])
		}
	}
	names := r.PortNames()
	if names[0] != "server0" || names[2] != "uplink0" || names[5] != "uplink3" {
		t.Errorf("names = %v", names)
	}
}

// Property: every port is exactly one of downlink/uplink, and the uplink
// count matches config.
func TestQuickPartition(t *testing.T) {
	f := func(nsRaw, nuRaw uint8) bool {
		ns := int(nsRaw%63) + 1
		nu := int(nuRaw%7) + 1
		r := Rack{NumServers: ns, ServerSpeed: Gbps10, NumUplinks: nu, UplinkSpeed: Gbps40}
		ups := 0
		for p := 0; p < r.NumPorts(); p++ {
			d, u := isDownlink(r, p), r.IsUplink(p)
			if d == u {
				return false
			}
			if u {
				ups++
			}
		}
		return ups == nu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
