package core

// Fleet-scale counterpart of internal/fault's collector-crash soak:
// seeded crash schedules (kill / torn write / fsync lie) strike the
// sharded collection plane mid-campaign, every struck shard resumes
// from its archive + checkpoint, and the merged fleet state must stay
// byte-exact against the single-collector oracle. With MBURST_FAULT_OUT
// set, the summary merges into that file (FAULT_soak.json in
// scripts/ci.sh) as the "fleet" ledger. The 1000-rack fleet's
// byte-exactness is TestFleetThousandRacksByteExact in fleet_test.go.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mburst/internal/fault"
	"mburst/internal/rng"
	"mburst/internal/workload"
)

// fleetSoakReport is the "fleet" section of FAULT_soak.json.
type fleetSoakReport struct {
	Schedules   int    `json:"schedules"`
	Racks       int    `json:"racks"`
	Shards      int    `json:"shards"`
	Kills       int    `json:"kills"`
	Resumes     int    `json:"resumes"`
	Replayed    uint64 `json:"replayed_batches"`
	Redelivered uint64 `json:"redelivered_batches"`
	Shortfall   uint64 `json:"shortfall_batches"`
	ByteExact   bool   `json:"byte_exact"`
}

// mergeFleetSoakArtifact folds the fleet ledger into the shared
// MBURST_FAULT_OUT artifact without disturbing the sections other soaks
// own (the file is read and rewritten as a generic object).
func mergeFleetSoakArtifact(t *testing.T, report fleetSoakReport) {
	t.Helper()
	out := os.Getenv("MBURST_FAULT_OUT")
	if out == "" {
		return
	}
	doc := map[string]any{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("existing %s is not a soak report: %v", out, err)
		}
	}
	doc["fleet"] = report
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFleetCrashSoak(t *testing.T) {
	const (
		schedules = 6
		racks     = 9
		shards    = 3
	)
	cfg := fleetTestConfig(racks)
	report := fleetSoakReport{
		Schedules: schedules, Racks: racks, Shards: shards, ByteExact: true,
	}
	for seed := uint64(1); seed <= schedules; seed++ {
		sched := fault.Generate(rng.New(seed).Split("fleet"), fault.CrashMix(), cfg.WindowDur)
		e, err := NewExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunFleet(context.Background(), FleetConfig{
			App:             workload.Web,
			Shards:          shards,
			PlacementSeed:   seed,
			BatchSize:       8,
			PublishEvery:    4,
			Dir:             filepath.Join(t.TempDir(), "fleet"),
			CheckpointEvery: 4,
			Oracle:          true,
			Faults:          sched,
		})
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sched, err)
		}
		if !res.ByteExact {
			report.ByteExact = false
			t.Errorf("seed %d (%s): fleet state diverges from the oracle after %d kills",
				seed, sched, res.Kills)
		}
		if res.Kills != res.Resumes {
			report.ByteExact = false
			t.Errorf("seed %d (%s): %d kills but %d resumes", seed, sched, res.Kills, res.Resumes)
		}
		report.Kills += res.Kills
		report.Resumes += res.Resumes
		report.Replayed += res.Replayed
		report.Redelivered += res.Redelivered
		report.Shortfall += res.Shortfall
	}
	if report.Kills == 0 {
		t.Error("crash mix struck no shard across every schedule")
	}
	mergeFleetSoakArtifact(t, report)
}
