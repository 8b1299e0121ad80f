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
		st, err = decodeMBC1(data)
	} else {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: decoding checkpoint %s: %w", path, err)
	}
	if err := st.validate(); err != nil {
		return CheckpointState{}, 0, false, fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	return st, len(data), true, nil
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
			s.gate.RestoreState(st.Gate)
			if s.cfg.Figures != nil && st.Figures != nil {
				s.cfg.Figures.RestoreState(*st.Figures)
			}
			if st.Ingest != nil {
				s.cfg.Stats.Restore(*st.Ingest)
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
