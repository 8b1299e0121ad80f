package core

// Fleet-scale counterpart of internal/fault's collector-crash soak:
// seeded crash schedules (kill / torn write / fsync lie) strike the
// sharded collection plane mid-campaign, every struck shard resumes
// from its archive + checkpoint, and the merged fleet state must stay
// byte-exact against the single-collector oracle. The summary merges
// into FAULT_soak.json as the "fleet" ledger; TestFleetBenchArtifact
// publishes BENCH_fleet.json (both gated in scripts/ci.sh).

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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

// TestFleetBenchArtifact runs the ISSUE's reference fleet — 1000 racks
// over 8 shards, oracle on — and publishes BENCH_fleet.json: ingest
// throughput, merge wall-clock (loading the 8 shard checkpoints and
// merging them into the fleet state), bytes fanned in, and the byte-exact verdict CI gates
// on. Gated on MBURST_FLEET_BENCH_OUT to keep ordinary runs fast.
func TestFleetBenchArtifact(t *testing.T) {
	out := os.Getenv("MBURST_FLEET_BENCH_OUT")
	if out == "" {
		t.Skip("MBURST_FLEET_BENCH_OUT not set")
	}
	const (
		racks  = 1000
		shards = 8
	)
	cfg := fleetTestConfig(racks)
	e, err := NewExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fleet")
	start := time.Now()
	res, err := e.RunFleet(context.Background(), FleetConfig{
		App:           workload.Web,
		Shards:        shards,
		PlacementSeed: 1,
		Dir:           dir,
		Oracle:        true,
		Notes:         "bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !res.ByteExact {
		t.Error("1000-rack fleet diverges from the single-collector oracle")
	}

	// Merge latency: rebuild the fleet-wide state from the 8 persisted
	// shard checkpoints — the aggregation tier's recovery-path merge.
	mergeStart := time.Now()
	_, ingest := mergeShardCheckpoints(t, dir, res.Placement)
	mergeWall := time.Since(mergeStart)
	if ingest.Samples != res.Fleet.Ingest.Samples {
		t.Errorf("checkpoint merge ingested %d samples, campaign %d",
			ingest.Samples, res.Fleet.Ingest.Samples)
	}

	artifact := struct {
		Name        string  `json:"name"`
		Racks       int     `json:"racks"`
		Shards      int     `json:"shards"`
		CPUs        int     `json:"cpus"`
		Batches     uint64  `json:"batches"`
		Samples     uint64  `json:"samples"`
		WireBytes   uint64  `json:"wire_bytes"`
		ElapsedMs   float64 `json:"elapsed_ms"`
		RacksPerSec float64 `json:"racks_per_sec"`
		MergeMs     float64 `json:"merge_ms"`
		ByteExact   bool    `json:"byte_exact"`
	}{
		Name:        "fleet_campaign",
		Racks:       racks,
		Shards:      shards,
		CPUs:        runtime.NumCPU(),
		Batches:     res.Batches,
		Samples:     res.Samples,
		WireBytes:   res.WireBytes,
		ElapsedMs:   float64(elapsed.Microseconds()) / 1000,
		RacksPerSec: float64(racks) / elapsed.Seconds(),
		MergeMs:     float64(mergeWall.Microseconds()) / 1000,
		ByteExact:   res.ByteExact,
	}
	// Throughput/latency floors, deliberately generous: a CI runner must
	// sustain >= 50 racks/sec and load + merge the shard checkpoints in
	// < 5 s — orders of magnitude of headroom over measured dev-box
	// numbers (~1400 racks/sec, a merge of a few milliseconds), while
	// still catching a collapse of either path.
	if artifact.RacksPerSec < 50 {
		t.Errorf("fleet ingest collapsed: %.1f racks/sec", artifact.RacksPerSec)
	}
	if mergeWall > 5*time.Second {
		t.Errorf("fleet merge collapsed: %v", mergeWall)
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d racks / %d shards in %v (%.1f racks/sec), merge %v, %d wire bytes",
		racks, shards, elapsed.Round(time.Millisecond), artifact.RacksPerSec,
		mergeWall, res.WireBytes)
}
