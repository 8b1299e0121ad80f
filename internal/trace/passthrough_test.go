package trace_test

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/collector"
	"mburst/internal/obs"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

// agentBatch is rack's i-th batch: three polls of its six series, each a
// byte counter or a size-bin counter moving by a rack- and
// series-specific amount.
func agentBatch(rack uint32, i int) *wire.Batch {
	b := &wire.Batch{Rack: rack, Epoch: 1}
	for poll := 0; poll < 3; poll++ {
		seq := uint64(i*3 + poll)
		at := simclock.Epoch.Add(simclock.Micros(int64(seq) * 25))
		for port := uint16(0); port < 3; port++ {
			step := uint64(rack+1)*1000 + uint64(port)*37 + seq%5
			b.Samples = append(b.Samples, wire.Sample{Time: at, Port: port, Dir: asic.TX, Kind: asic.KindBytes, Value: seq * step})
			s := wire.Sample{Time: at, Port: port, Dir: asic.RX, Kind: asic.KindSizeBins}
			for k := range s.Bins {
				s.Bins[k] = seq * (step + uint64(k))
			}
			b.Samples = append(b.Samples, s)
		}
	}
	return b
}

// TestShardArchivesReceivedFrames feeds a durable Shard from per-rack
// agent streams, each decoded by its own wire.Reader, with a checkpoint —
// which ends the archive's segment — every five batches. The archive
// encodes exactly one frame per rack whose stream continues across a
// segment roll, that rack's first in the new segment, and passes every
// other frame through as the agent sent it; the shard's metrics carry
// both counts, and the archive decodes to exactly what the agents sent.
func TestShardArchivesReceivedFrames(t *testing.T) {
	const racks, perRack, every = 4, 12, 5
	dir := t.TempDir()
	arch, err := trace.CreateArchive(filepath.Join(dir, "archive"), trace.ArchiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := collector.NewRecoveryMetrics(obs.NewRegistry())
	shard, err := collector.NewShard(collector.ShardConfig{
		Archive:         arch,
		CheckpointPath:  filepath.Join(dir, "checkpoint.mbc"),
		Every:           every,
		Stats:           &collector.IngestStats{},
		RecoveryMetrics: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	type agent struct {
		buf bytes.Buffer
		w   *wire.Writer
		r   *wire.Reader
	}
	agents := make([]*agent, racks)
	for i := range agents {
		a := &agent{}
		a.w, a.r = wire.NewWriter(&a.buf), wire.NewReader(&a.buf)
		a.r.SetReuse(true)
		agents[i] = a
	}

	var sent []wire.Batch
	var wantEncoded uint64
	lastSeg := map[uint32]int{}
	for i := 0; i < perRack; i++ {
		for r := uint32(0); r < racks; r++ {
			seg := len(sent) / every // the shard checkpoints after every fifth batch
			if last, ok := lastSeg[r]; ok && last != seg {
				wantEncoded++
			}
			lastSeg[r] = seg
			in := agentBatch(r, i)
			a := agents[r]
			if err := a.w.WriteBatch(in); err != nil {
				t.Fatal(err)
			}
			b, err := a.r.ReadBatch()
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, *in)
			shard.Handle(b)
		}
	}
	if err := shard.Err(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	total := uint64(len(sent))
	if f := arch.Frames(); f.Encoded != wantEncoded || f.Passed != total-wantEncoded {
		t.Errorf("archive wrote %+v, want %d encoded and the other %d passed through", f, wantEncoded, total-wantEncoded)
	}
	if p, e := rec.ArchivePassed.Value(), rec.ArchiveEncoded.Value(); p != total-wantEncoded || e != wantEncoded {
		t.Errorf("metrics count %d passed, %d encoded; want %d, %d", p, e, total-wantEncoded, wantEncoded)
	}
	if got := decodeArchive(t, filepath.Join(dir, "archive")); !reflect.DeepEqual(got, sent) {
		t.Errorf("the archive decodes to %d batches other than the %d the agents sent", len(got), len(sent))
	}
}
