package collector

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"mburst/internal/ptrace"
	"mburst/internal/simclock"
	"mburst/internal/stats"
	"mburst/internal/wire"
)

// This file holds the reference implementations the incremental paths
// are checked against: the bodies LiveFigures.State, its series order
// and MergeFiguresStates had before a cut cost O(series fed since the
// last one), moved here. They are slow and obviously right — walk
// everything, snapshot everything, sort everything — and they consult
// none of the bookkeeping (order, dirty marks, cached cuts) the fast
// paths rely on. refResume is Shard.Resume before it decoded
// and restored the checkpoint on a goroutine of its own while it read
// the archive tail: load, restore, then iterate, all in sequence.
// refRender is how a cut was rendered before one renderer read it:
// restore it into a fresh tap, then that tap's old Snapshot body.
// refLoadCheckpoint is LoadCheckpoint before it went through the restore
// a resume runs: a decoder of its own for MBC1 bodies (refDecodeMBC1),
// json.Unmarshal for legacy files, then a validation that sorted the
// series to find one listed twice; refRestoreGate and refRestoreStats
// are the restores it was paired with.

// refSaveCheckpointJSON writes st the way the checkpoint writer did
// before MBC1 (one line of compact JSON). Shipping code only reads this form; the
// writer lives on here to manufacture legacy inputs.
func refSaveCheckpointJSON(path string, st CheckpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// refFiguresState is the full re-snapshot: every series of f.series,
// sorted by rack, port, dir, kind, each accumulator snapshotted anew.
func refFiguresState(f *LiveFigures) FiguresState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FiguresState{Samples: f.samples}
	keys := make([]liveKey, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Rack != b.Rack {
			return a.Rack < b.Rack
		}
		if a.Key.Port != b.Key.Port {
			return a.Key.Port < b.Key.Port
		}
		if a.Key.Dir != b.Key.Dir {
			return a.Key.Dir < b.Key.Dir
		}
		return a.Key.Kind < b.Key.Kind
	})
	for _, k := range keys {
		s := f.series[k]
		st.Series = append(st.Series, &SeriesState{
			Rack: k.Rack, Port: k.Key.Port, Dir: k.Key.Dir, Kind: k.Key.Kind,
			Util:      s.util.Snapshot(),
			Seg:       s.seg.Snapshot(),
			Markov:    s.mk.Snapshot(),
			Durations: s.durations.Snapshot(),
			Gaps:      s.gaps.Snapshot(),
			Moments:   s.moments.Snapshot(),
			UtilHist:  append([]uint64(nil), s.utilHist...),
			Points:    s.points,
			Hot:       s.hot,
		})
	}
	return st
}

// refOrdered is LiveFigures.ordered before it merged: every series of
// f.series, the whole table sorted.
func refOrdered(f *LiveFigures) []*liveSeries {
	f.mu.Lock()
	defer f.mu.Unlock()
	order := make([]*liveSeries, 0, len(f.series))
	for _, s := range f.series {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].key.id().less(order[j].key.id()) })
	return order
}

// refMergeFiguresStates is the concatenate-and-sort union.
func refMergeFiguresStates(states ...FiguresState) (FiguresState, error) {
	var out FiguresState
	n := 0
	for _, st := range states {
		n += len(st.Series)
	}
	if n > 0 {
		out.Series = make([]*SeriesState, 0, n)
	}
	for _, st := range states {
		out.Samples += st.Samples
		out.Series = append(out.Series, st.Series...)
	}
	sort.Slice(out.Series, func(i, j int) bool {
		return out.Series[i].id().less(out.Series[j].id())
	})
	for i := 1; i < len(out.Series); i++ {
		if out.Series[i].id() == out.Series[i-1].id() {
			return FiguresState{}, fmt.Errorf(
				"collector: series %s claimed by two shards (placement violation)",
				out.Series[i].id())
		}
	}
	return out, nil
}

// refLoadCheckpoint is the whole-file checkpoint load refResume uses:
// read, decode (MBC1 or legacy JSON), validate, plus the file's size.
func refLoadCheckpoint(path string) (st CheckpointState, size int, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CheckpointState{}, 0, false, nil
	}
	if err != nil {
		return CheckpointState{}, 0, false, err
	}
	if bytes.HasPrefix(data, []byte(CheckpointMagic)) {
		st, err = refDecodeMBC1(data)
	} else {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	if err := refValidate(st); err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	return st, len(data), true, nil
}

// refDecodeMBC1 decodes a whole MBC1 file (magic included) into a
// CheckpointState, field for field in file order, and returns the first
// malformed field's error, or an error for trailing bytes.
func refDecodeMBC1(data []byte) (CheckpointState, error) {
	r, err := openMBC1(data)
	if err != nil {
		return CheckpointState{}, err
	}
	st := CheckpointState{ArchivedBatches: r.uvarint()}
	if n := r.count(mbc1MinGateBytes); n > 0 {
		st.Gate = make([]RackEpochState, n)
		for i := range st.Gate {
			g := &st.Gate[i]
			g.Rack = uint32(r.uvarintMax(math.MaxUint32))
			g.Epoch = uint32(r.uvarintMax(math.MaxUint32))
			g.LastTime = simclock.Time(r.varint())
			g.Seen = r.bool()
		}
	}
	if r.bool() {
		in := &Snapshot{}
		in.Batches = r.uvarint()
		in.Samples = r.uvarint()
		in.LastSampleNanos = r.varint()
		if n := r.count(mbc1MinPerRackBytes); n > 0 {
			in.PerRack = make([]RackCount, n)
			for i := range in.PerRack {
				in.PerRack[i].Rack = uint32(r.uvarintMax(math.MaxUint32))
				in.PerRack[i].Samples = r.uvarint()
			}
		}
		st.Ingest = in
	}
	if r.bool() {
		f := &FiguresState{}
		f.Samples = r.uvarint()
		if n := r.count(mbc1MinSeriesBytes); n > 0 {
			slab := make([]SeriesState, n)
			f.Series = make([]*SeriesState, n)
			for i := range slab {
				r.series(&slab[i])
				f.Series[i] = &slab[i]
			}
		}
		st.Figures = f
	}
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%d trailing bytes after the MBC1 body", len(r.buf))
	}
	if r.err != nil {
		return CheckpointState{}, r.err
	}
	return st, nil
}

// refValidate rejects a null series, a series without utilBins
// histogram bins, and a series listed twice, found by sorting.
func refValidate(st CheckpointState) error {
	if st.Figures == nil {
		return nil
	}
	for i, s := range st.Figures.Series {
		if s == nil {
			return fmt.Errorf("series %d is null", i)
		}
		if err := histBins(s); err != nil {
			return err
		}
	}
	series := canonicalOrder(st.Figures.Series)
	for i := 1; i < len(series); i++ {
		if id := series[i].id(); id == series[i-1].id() {
			return fmt.Errorf("series %s is listed twice", id)
		}
	}
	return nil
}

// refRestoreGate replaces the gate's per-rack state with a snapshot; a
// rack listed twice keeps its last entry.
func refRestoreGate(g *EpochGate, state []RackEpochState) {
	racks := make(map[uint32]*rackEpoch, len(state))
	for _, st := range state {
		racks[st.Rack] = &rackEpoch{epoch: st.Epoch, lastTime: st.LastTime, seen: st.Seen}
	}
	g.install(racks)
}

// refRestoreStats replaces the ingest counters with a snapshot; a rack
// listed twice keeps its last count.
func refRestoreStats(s *IngestStats, snap Snapshot) {
	perRack := make(map[uint32]uint64, len(snap.PerRack))
	for _, rc := range snap.PerRack {
		perRack[rc.Rack] = rc.Samples
	}
	s.install(snap.Batches, snap.Samples, snap.LastSampleNanos, perRack)
}

// refResume is the sequential Resume: the checkpoint is loaded and
// restored before iter is called, and each tail batch is applied inside
// iter's callback, on the caller's goroutine.
func refResume(s *Shard, iter func(func(*wire.Batch) error) error) (ResumeReport, error) {
	if s.cfg.Archive == nil {
		return ResumeReport{}, errors.New("collector: volatile shard cannot Resume")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.rec.now()
	defer func() { s.rec.ResumeSeconds.Set(s.rec.since(start)) }()
	var rep ResumeReport
	if s.cfg.CheckpointPath != "" {
		st, size, ok, err := refLoadCheckpoint(s.cfg.CheckpointPath)
		if err != nil {
			return rep, err
		}
		if ok {
			s.rec.CheckpointLoadSeconds.Set(s.rec.since(start))
			s.rec.CheckpointBytes.Set(float64(size))
			rep.HadCheckpoint = true
			rep.CheckpointBatches = st.ArchivedBatches
			refRestoreGate(s.gate, st.Gate)
			if s.cfg.Figures != nil && st.Figures != nil {
				s.cfg.Figures.RestoreState(*st.Figures)
			}
			if st.Ingest != nil {
				refRestoreStats(s.cfg.Stats, *st.Ingest)
			}
		}
	}
	rep.ArchiveBatches = s.cfg.Archive.Batches()
	if rep.CheckpointBatches > rep.ArchiveBatches {
		rep.Shortfall = rep.CheckpointBatches - rep.ArchiveBatches
		return rep, nil
	}
	var seen uint64
	if iter != nil {
		if err := iter(func(b *wire.Batch) error {
			seen++
			if seen <= rep.CheckpointBatches {
				if seen == 1 && rep.CheckpointBatches > 1 {
					seen = rep.CheckpointBatches
					return wire.SkipTo(seen)
				}
				return nil
			}
			s.gate.admit(b)
			recordStageSpan(s.cfg.Tracer, ptrace.StageRecover, b, "")
			s.record(b)
			if s.cfg.Figures != nil {
				recordStageSpan(s.cfg.Tracer, ptrace.StageFiguresApply, b, "")
				s.cfg.Figures.Handle(b)
			}
			rep.Replayed++
			return nil
		}); err != nil {
			return rep, err
		}
	}
	s.rec.ReplayedBatches.Add(rep.Replayed)
	s.sinceCkpt = int(rep.Replayed)
	s.rec.CheckpointLag.Set(float64(s.sinceCkpt))
	return rep, nil
}

// refRender restores st into a fresh tap configured by cfg and renders
// the tap's live accumulators, as LiveFigures.Snapshot did.
func refRender(cfg LiveFiguresConfig, st FiguresState) (FiguresSnapshot, error) {
	f, err := NewLiveFigures(cfg)
	if err != nil {
		return FiguresSnapshot{}, err
	}
	f.RestoreState(st)
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FiguresSnapshot{Threshold: f.cfg.Threshold, Samples: f.samples}
	series := f.ordered()
	models := make([]stats.MarkovModel, 0, len(series))
	for _, st := range series {
		k := st.key
		sf := SeriesFigures{
			Rack:        k.Rack,
			Port:        k.Key.Port,
			Dir:         k.Key.Dir.String(),
			Points:      st.points,
			HotPoints:   st.hot,
			UtilHist:    append([]uint64(nil), st.utilHist...),
			Bursts:      st.durations.N(),
			ActiveBurst: st.seg.Active(),
		}
		if st.moments.N() > 0 {
			sf.MeanUtil = st.moments.Mean()
			sf.MaxUtil = st.moments.Max()
		}
		if d := st.durations.ECDF(); d.N() > 0 {
			sf.BurstP50Micros = d.Quantile(0.5)
			sf.BurstP99Micros = d.Quantile(0.99)
		}
		if g := st.gaps.ECDF(); g.N() > 0 {
			sf.GapP50Micros = g.Quantile(0.5)
			sf.GapP99Micros = g.Quantile(0.99)
		}
		snap.Series = append(snap.Series, sf)
		models = append(models, st.mk.Model())
		if f.cfg.IsUplink != nil && f.cfg.IsUplink(k.Rack, k.Key.Port) {
			snap.UplinkHot += st.hot
		} else {
			snap.DownlinkHot += st.hot
		}
	}
	m := stats.MergeMarkov(models...)
	snap.Markov.Transitions = m.N
	if !math.IsNaN(m.P[0][1]) {
		snap.Markov.P01 = m.P[0][1]
	}
	if !math.IsNaN(m.P[1][1]) {
		snap.Markov.P11 = m.P[1][1]
	}
	return snap, nil
}
