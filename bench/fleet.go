package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"
)

// fleetSpec sizes the durable fleet workload. Virtual rack v replays base
// stream v mod 4 under rack id v, so state grows with racks while set-up
// stays four simulated racks.
type fleetSpec struct {
	racks        int
	shards       int
	batch        int // samples per batch
	perRack      int // batches each rack ships in the ingest phase
	publishEvery int
	kills        int // kill/resume cycles per shard
	killOffset   int // batches a shard admits past its last checkpoint before each kill
}

var fleetFull = fleetSpec{racks: 1024, shards: 4, batch: 512, perRack: 3, publishEvery: 8, kills: 3, killOffset: 40}

func (s fleetSpec) scaled(quick bool) fleetSpec {
	if quick {
		s.racks, s.perRack, s.kills, s.killOffset = 96, 3, 1, 12
	}
	return s
}

const fleetBaseRacks = 4

// fleetPlacementSeed fixes the rendezvous placement. The benchmark's seed
// must not reach it: Uniform(4, seed) over racks 0..1023 gives shards of
// very different sizes from seed to seed (303/179/173/369 racks here,
// 438/174/212/200 at seed 2), and publish and checkpoint cost grow with a
// shard's state, so a seeded placement moved ingest_samples_per_s by ±15%
// between seeds — more than any regression the metric should catch.
const fleetPlacementSeed = 1

// fleetShard is one shard's runtime state. mu serializes delivery,
// publishing and kill/resume per shard (as core.RunFleet does); racks on
// different shards proceed in parallel.
type fleetShard struct {
	mu  sync.Mutex
	id  int
	dir string
	pl  *Placement
	ctr shardCounters

	s    *Shard
	arch *ArchiveWriter
	file *os.File // the open segment, closed raw on a kill

	cur       *spanBuf // the delivering goroutine's span log, set under mu
	inCkpt    bool
	ckptStart int64

	sincePublish int
	sinceCkpt    int // batches admitted since the last checkpoint: what a resume must replay
	lastSeq      uint64
	published    int
	fsyncs       int
	fsyncS       float64
	archiveBytes int64
}

// shardFile is the segment file the archive writes through; it times
// fsyncs and lets a kill close the descriptor without sealing.
type shardFile struct {
	f  *os.File
	fs *fleetShard
}

func (s *shardFile) Write(p []byte) (int, error) {
	n, err := s.f.Write(p)
	s.fs.archiveBytes += int64(n)
	return n, err
}

func (s *shardFile) Sync() error {
	t0 := wallNow()
	s.fs.cur.begin(spArchiveFsync, uint64(s.fs.id))
	err := s.f.Sync()
	s.fs.cur.end()
	s.fs.fsyncs++
	s.fs.fsyncS += wallNow().Sub(t0).Seconds()
	return err
}

func (s *shardFile) Close() error { return s.f.Close() }

func (fs *fleetShard) open(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	fs.file = f
	return &shardFile{f: f, fs: fs}, nil
}

// shardSink is the ArchiveSink the shard writes through. Sync is only
// called by the checkpointer, so its return marks where a checkpoint's
// own work (state cut + atomic save) begins.
type shardSink struct {
	w  *ArchiveWriter
	fs *fleetShard
}

func (t shardSink) WriteBatch(b *Batch) error {
	t.fs.cur.begin(spArchiveWrite, uint64(b.Rack))
	err := t.w.WriteBatch(b)
	t.fs.cur.end()
	return err
}

func (t shardSink) Sync() error {
	err := t.w.Sync()
	if t.fs.cur != nil {
		t.fs.inCkpt, t.fs.ckptStart = true, t.fs.cur.now()
	}
	return err
}

func (t shardSink) Batches() uint64 { return t.w.Batches() }

// closeCheckpoint records the checkpoint span a Handle or Checkpoint call
// turned out to contain.
func (fs *fleetShard) closeCheckpoint() {
	if fs.inCkpt {
		fs.cur.add(spCheckpoint, uint64(fs.id), fs.ckptStart, fs.cur.now())
		fs.inCkpt = false
	}
}

func (fs *fleetShard) start() error {
	arch, err := createArchive(fs.dir, fs.open)
	if err != nil {
		return err
	}
	fs.arch = arch
	fs.s, err = newShard(fs.id, fs.pl, shardSink{arch, fs}, fs.dir, fs.ctr)
	return err
}

// deliver hands one decoded batch to the shard and keeps the publish
// cadence.
func (fs *fleetShard) deliver(b *Batch, agg *Aggregator, every int, buf *spanBuf) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cur = buf
	buf.begin(spShardHandle, uint64(b.Rack))
	fs.s.Handle(b)
	fs.closeCheckpoint()
	buf.end()
	if err := fs.s.Err(); err != nil {
		return fmt.Errorf("shard %d ingest: %w", fs.id, err)
	}
	fs.sincePublish++
	if fs.sincePublish >= every {
		fs.sincePublish = 0
		fs.publish(agg, buf, false)
	}
	return nil
}

func (fs *fleetShard) publish(agg *Aggregator, buf *spanBuf, mustLand bool) {
	buf.begin(spPublish, uint64(fs.id))
	u := fs.s.Publish()
	buf.end()
	fs.lastSeq = u.Seq
	fs.published++
	buf.begin(spOffer, uint64(fs.id))
	if mustLand {
		agg.Deliver(u)
	} else {
		agg.Offer(u)
	}
	buf.end()
}

// finish lands the shard's final cut and forces a checkpoint.
func (fs *fleetShard) finish(agg *Aggregator, buf *spanBuf) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cur = buf
	fs.publish(agg, buf, true)
	buf.begin(spShardHandle, uint64(fs.id))
	err := fs.s.Checkpoint()
	fs.closeCheckpoint()
	buf.end()
	return err
}

// killAndResume drops the incarnation without Close (the descriptor is
// closed raw, as a dying process would) and brings the shard back from
// its archive and checkpoint. It returns kill → serving, in seconds.
func (fs *fleetShard) killAndResume(buf *spanBuf) (float64, ResumeReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.cur = buf
	t0 := time.Now()
	buf.begin(spResume, uint64(fs.id))
	defer buf.end()
	fs.file.Close()
	fs.s, fs.arch = nil, nil

	buf.begin(spArchiveScan, uint64(fs.id))
	arch, err := resumeArchive(fs.dir, fs.open)
	buf.end()
	if err != nil {
		return 0, ResumeReport{}, fmt.Errorf("shard %d: resume archive: %w", fs.id, err)
	}
	s, err := newShard(fs.id, fs.pl, shardSink{arch, fs}, fs.dir, fs.ctr)
	if err != nil {
		return 0, ResumeReport{}, err
	}
	buf.begin(spReplay, uint64(fs.id))
	rep, err := s.Resume(func(fn func(*Batch) error) error {
		return iterArchive(fs.dir, func(b *Batch) error {
			buf.begin(spReplayApply, uint64(b.Rack))
			err := fn(b)
			buf.end()
			return err
		})
	})
	buf.end()
	if err != nil {
		return 0, rep, fmt.Errorf("shard %d: resume: %w", fs.id, err)
	}
	s.ResumeSeq(fs.lastSeq)
	fs.s, fs.arch = s, arch
	return time.Since(t0).Seconds(), rep, nil
}

// fleetWant is what the unsharded volatile oracle computed.
type fleetWant struct {
	figures FiguresState
	ingest  IngestSnapshot
	render  FiguresSnapshot
}

func (w *fleetWant) check(got FleetState, render FiguresSnapshot) []string {
	var bad []string
	if !reflect.DeepEqual(got.Figures, w.figures) {
		bad = append(bad, "fleet figures state differs from the unsharded oracle")
	}
	if !reflect.DeepEqual(got.Ingest, w.ingest) {
		bad = append(bad, "fleet ingest totals differ from the unsharded oracle")
	}
	if !reflect.DeepEqual(render, w.render) {
		bad = append(bad, "fleet figures render differs from the unsharded oracle")
	}
	return bad
}

// fleetRound is what one round measured.
type fleetRound struct {
	wallIngest, wallRound, cpu float64
	samplesIngest, samples     int64
	wireBytes                  int64
	deliver, resume            []float64
	finalCutS, renderS         float64
	replayed, shortfall        uint64
	published, fsyncs          int
	fsyncS                     float64
	archiveBytes               int64
	ckptBytes                  int64
	ckptLoadS                  float64 // median time to parse one shard's final checkpoint (traced rounds)
	ckptCount                  uint64
	offered, dropped           uint64
	series, latched            int
	failures                   []string
}

// killRack picks the rack of the j-th extra batch of a kill cycle: the
// shard's own racks in turn, each continuing its tiled stream.
func killRack(owned []int, cycle, j, offset int) int { return owned[(cycle*offset+j)%len(owned)] }

// fleetOracle feeds one unsharded volatile shard the same batches and
// returns its state after the ingest phase and after the kill phase.
func fleetOracle(spec fleetSpec, streams []*stream, owned [][]int) (before, after *fleetWant, err error) {
	oracle, err := newShard(0, nil, nil, "", newShardCounters())
	if err != nil {
		return nil, nil, err
	}
	cut := func() (*fleetWant, error) {
		u := oracle.Publish()
		render, err := renderFigures(u.Figures)
		return &fleetWant{u.Figures, u.Ingest, render}, err
	}
	cursors := make([]cursor, spec.racks)
	b := &Batch{Epoch: 1, Samples: make([]Sample, spec.batch)}
	next := func(v int) {
		b.Rack = uint32(v)
		cursors[v].fill(b.Samples)
		oracle.Handle(b)
	}
	for v := range cursors {
		cursors[v].s = streams[v%len(streams)]
		for i := 0; i < spec.perRack; i++ {
			next(v)
		}
	}
	if before, err = cut(); err != nil {
		return nil, nil, err
	}
	for c := 0; c < spec.kills; c++ {
		for k := range owned {
			for j := 0; j < spec.killOffset; j++ {
				next(killRack(owned[k], c, j, spec.killOffset))
			}
		}
	}
	after, err = cut()
	return before, after, err
}

// runFleetRound runs one round in dir: ingest, final cut, then the
// kill/resume cycles and a second final cut.
func runFleetRound(spec fleetSpec, streams []*stream, pl Placement, owned [][]int, dir string,
	before, after *fleetWant, tr *tracer) (*fleetRound, error) {
	rd := &fleetRound{}
	shards := make([]*fleetShard, spec.shards)
	for k := range shards {
		shards[k] = &fleetShard{id: k, dir: filepath.Join(dir, pl.Name(k)), pl: &pl, ctr: newShardCounters()}
		if err := shards[k].start(); err != nil {
			return nil, err
		}
	}
	agg, aggCtr, err := newAggregator(spec.shards)
	if err != nil {
		return nil, err
	}
	defer agg.Close()
	cursors := make([]cursor, spec.racks)
	for v := range cursors {
		cursors[v].s = streams[v%len(streams)]
	}

	const workers = 2
	type workerOut struct {
		deliver   []float64
		wireBytes int64
		err       error
	}
	outs := make([]workerOut, workers)
	bufs := make([]*spanBuf, workers)
	for w := range bufs {
		bufs[w] = tr.buf()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o, buf := &outs[w], bufs[w]
			buf.begin(spRound, uint64(w))
			defer buf.end()
			scratch := make([]Sample, spec.batch)
			for v := w; v < spec.racks; v += workers {
				// One rack's agent: its own MBW3 writer/reader chain
				// through a memory buffer, as core.RunFleet does.
				var wire bytes.Buffer
				ww, err := newWireWriter(&wire)
				if err != nil {
					o.err = err
					return
				}
				out := &Batch{Rack: uint32(v), Epoch: 1, Samples: scratch}
				for i := 0; i < spec.perRack; i++ {
					buf.begin(spGenFill, uint64(v))
					cursors[v].fill(scratch)
					buf.end()
					buf.begin(spWireEncode, uint64(v))
					err := ww.WriteBatch(out)
					buf.end()
					if err != nil {
						o.err = err
						return
					}
				}
				o.wireBytes += int64(wire.Len())
				target := shards[pl.ShardOf(uint32(v))]
				rd := newWireReader(&wire)
				for {
					buf.begin(spWireDecode, uint64(v))
					b, err := rd.ReadBatch()
					buf.end()
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						o.err = err
						return
					}
					td := time.Now()
					if err := target.deliver(b, agg, spec.publishEvery, buf); err != nil {
						o.err = err
						return
					}
					o.deliver = append(o.deliver, time.Since(td).Seconds())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rd.deliver = append(rd.deliver, o.deliver...)
		rd.wireBytes += o.wireBytes
	}
	buf := bufs[0]
	buf.begin(spRound, 0)
	for _, fs := range shards {
		if err := fs.finish(agg, buf); err != nil {
			return nil, err
		}
	}
	rd.wallIngest = time.Since(t0).Seconds()
	rd.samplesIngest = int64(spec.racks * spec.perRack * spec.batch)

	cut := func(want *fleetWant, when string) error {
		tc := time.Now()
		buf.begin(spFleetCut, 0)
		agg.Flush()
		st, err := agg.FleetState()
		buf.end()
		if err != nil {
			return err
		}
		rd.finalCutS = time.Since(tc).Seconds()
		tc = time.Now()
		buf.begin(spFleetRender, 0)
		render, err := agg.FleetFigures()
		buf.end()
		if err != nil {
			return err
		}
		rd.renderS = time.Since(tc).Seconds()
		for _, f := range want.check(st, render) {
			rd.failures = append(rd.failures, when+": "+f)
		}
		rd.series = len(st.Figures.Series)
		rd.latched = 0
		for _, s := range st.Figures.Series {
			if s.Util.Err != "" {
				rd.latched++
			}
		}
		return nil
	}
	if err := cut(before, "before kills"); err != nil {
		return nil, err
	}

	// Kill phase: each shard in turn admits killOffset more batches past
	// its last checkpoint, dies, and resumes.
	b := &Batch{Epoch: 1, Samples: make([]Sample, spec.batch)}
	for c := 0; c < spec.kills; c++ {
		for k, fs := range shards {
			for j := 0; j < spec.killOffset; j++ {
				v := killRack(owned[k], c, j, spec.killOffset)
				b.Rack = uint32(v)
				cursors[v].fill(b.Samples)
				if err := fs.deliver(b, agg, spec.publishEvery, buf); err != nil {
					return nil, err
				}
			}
			fs.sinceCkpt += spec.killOffset
			s, rep, err := fs.killAndResume(buf)
			if err != nil {
				return nil, err
			}
			rd.resume = append(rd.resume, s)
			rd.replayed += rep.Replayed
			rd.shortfall += rep.Shortfall
			if !rep.HadCheckpoint || rep.Replayed != uint64(fs.sinceCkpt) || rep.Shortfall != 0 {
				rd.failures = append(rd.failures, fmt.Sprintf("shard %d cycle %d: resume report %+v, want %d replayed from a checkpoint", k, c, rep, fs.sinceCkpt))
			}
		}
	}
	for _, fs := range shards {
		fs.mu.Lock()
		fs.cur = buf
		fs.publish(agg, buf, true)
		fs.mu.Unlock()
	}
	if err := cut(after, "after kills"); err != nil {
		return nil, err
	}
	buf.end()
	rd.wallRound = time.Since(t0).Seconds()
	rd.cpu = cpuSeconds() - cpu0
	rd.samples = rd.samplesIngest + int64(spec.kills*spec.shards*spec.killOffset*spec.batch)

	var loads []float64
	for _, fs := range shards {
		if err := fs.s.Checkpoint(); err != nil {
			rd.failures = append(rd.failures, "final checkpoint: "+err.Error())
		}
		if err := fs.arch.Close(); err != nil {
			rd.failures = append(rd.failures, "archive close: "+err.Error())
		}
		if st, err := os.Stat(checkpointPath(fs.dir)); err == nil {
			rd.ckptBytes += st.Size()
		}
		if tr != nil {
			// The file a resume of this shard would have to load.
			tl := time.Now()
			if err := loadCheckpoint(checkpointPath(fs.dir)); err != nil {
				return nil, err
			}
			loads = append(loads, time.Since(tl).Seconds())
		}
		rd.published += fs.published
		rd.fsyncs += fs.fsyncs
		rd.fsyncS += fs.fsyncS
		rd.archiveBytes += fs.archiveBytes
		rd.ckptCount += fs.ctr.checkpoints()
		if n := fs.ctr.misrouted() + fs.ctr.failures() + fs.ctr.gate.dropped(); n != 0 {
			rd.failures = append(rd.failures, fmt.Sprintf("shard %d: %d misrouted/failed/gate-dropped batches", fs.id, n))
		}
	}
	rd.ckptLoadS = median(loads)
	rd.offered = aggCtr.enqueued() + aggCtr.dropped()
	rd.dropped = aggCtr.dropped()
	if rd.latched != 0 {
		rd.failures = append(rd.failures, fmt.Sprintf("%d latched series", rd.latched))
	}
	return rd, nil
}

func runFleet(e *env) (*outcome, error) {
	spec := fleetFull.scaled(e.quick)
	out := newOutcome()
	root := filepath.Join(e.dir, "fleet")

	var streams []*stream
	setup, err := e.timeSetup(func() error {
		if err := os.RemoveAll(root); err != nil {
			return err
		}
		if err := os.MkdirAll(root, 0o755); err != nil {
			return err
		}
		var err error
		streams, err = ingestBase(e, ingestSpec{name: "fleet_durable", racks: fleetBaseRacks, kind: baseFullCounters})
		return err
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	pl, err := uniformPlacement(spec.shards, fleetPlacementSeed)
	if err != nil {
		return nil, err
	}
	owned := make([][]int, spec.shards)
	for v := 0; v < spec.racks; v++ {
		k := pl.ShardOf(uint32(v))
		owned[k] = append(owned[k], v)
	}
	for k := range owned {
		if len(owned[k]) == 0 {
			return nil, fmt.Errorf("fleet_durable: placement leaves shard %d without racks", k)
		}
	}
	before, after, err := fleetOracle(spec, streams, owned)
	if err != nil {
		return nil, err
	}

	var rounds []*fleetRound
	nPlain, err := e.rounds(func(i int, tr *tracer) error {
		dir := filepath.Join(root, fmt.Sprintf("round-%03d", i))
		rd, err := runFleetRound(spec, streams, pl, owned, dir, before, after, tr)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		out.attempted += rd.samples
		for _, f := range rd.failures {
			out.fail(1, "fleet_durable round %d: %s", i, f)
		}
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := rounds[:nPlain], rounds[nPlain:]
	var deliver, resume []float64
	for _, r := range plain {
		deliver = append(deliver, r.deliver...)
		resume = append(resume, r.resume...)
	}
	wallIngest := median(column(plain, func(r *fleetRound) float64 { return r.wallIngest }))
	out.e2e["setup_s"] = setup
	out.e2e["campaign_wall_s"] = median(column(plain, func(r *fleetRound) float64 { return r.wallRound }))
	out.e2e["ingest_samples_per_s"] = median(column(plain, func(r *fleetRound) float64 { return float64(r.samplesIngest) / r.wallIngest }))
	out.e2e["wire_bytes_per_sample"] = float64(rounds[0].wireBytes) / float64(rounds[0].samplesIngest)
	out.e2e["batch_latency_p50_ms"] = median(deliver) * 1e3
	out.e2e["resume_s"] = median(resume)
	out.e2e["cpu_s"] = median(column(plain, func(r *fleetRound) float64 { return r.cpu }))
	out.notef("fleet_durable: %d rounds; %d racks → %d durable shards on %s, %d samples/round ingested in %.3f s; kill → serving %s; batch handed over → applied %s",
		len(rounds), spec.racks, spec.shards, fsName(e.dir), rounds[0].samplesIngest, wallIngest, summary(resume), summary(deliver))

	out.notef("fleet_durable: untraced ingest walls %.3f s, round walls %.3f s", column(plain, func(r *fleetRound) float64 { return r.wallIngest }),
		column(plain, func(r *fleetRound) float64 { return r.wallRound }))
	if e.tr == nil {
		return out, nil
	}
	led := e.tr.ledger()
	nT := float64(len(traced))
	samples := float64(traced[0].samples) * nT
	samplesIngest := float64(traced[0].samplesIngest) * nT
	ms := func(xs []float64, q float64) float64 { return quantile(sorted(xs), q) * 1e3 }
	ckpt := e.tr.durations(spCheckpoint)
	m := out.layer
	m["wire.encode_ns_per_sample"] = led.self(spWireEncode) / samplesIngest * 1e9
	m["wire.encode_ns_per_batch"] = led.self(spWireEncode) / led.count(spWireEncode) * 1e9
	// The decode span count includes each rack's closing EOF read.
	decodes := led.count(spWireDecode) - nT*float64(spec.racks)
	m["wire.decode_ns_per_sample"] = led.self(spWireDecode) / samplesIngest * 1e9
	m["wire.decode_ns_per_batch"] = led.self(spWireDecode) / decodes * 1e9
	m["wire.bytes_per_sample"] = out.e2e["wire_bytes_per_sample"]
	// No seam separates gate, stats and figures inside a durable shard:
	// Handle's self time (archive write and checkpoint are children) is
	// booked to figures, which dominates it.
	m["figures.ns_per_sample"] = led.self(spShardHandle) / samples * 1e9
	m["figures.series"] = float64(traced[0].series)
	m["figures.latched_series"] = float64(traced[0].latched)
	m["figures.snapshot_ms"] = median(column(traced, func(r *fleetRound) float64 { return r.renderS })) * 1e3
	m["archive.write_ns_per_sample"] = led.self(spArchiveWrite) / samples * 1e9
	m["archive.bytes_per_sample"] = float64(traced[0].archiveBytes) / float64(traced[0].samples)
	m["archive.fsync_count"] = float64(traced[0].fsyncs)
	m["archive.fsync_s"] = median(column(traced, func(r *fleetRound) float64 { return r.fsyncS }))
	m["checkpoint.count"] = float64(traced[0].ckptCount)
	m["checkpoint.ms_p50"] = ms(ckpt, 0.5)
	m["checkpoint.ms_max"] = ms(ckpt, 1)
	m["checkpoint.bytes"] = float64(traced[0].ckptBytes)
	m["shard.publish_count"] = float64(traced[0].published)
	m["shard.publish_ms_p50"] = ms(e.tr.durations(spPublish), 0.5)
	m["shard.misrouted"] = 0 // asserted per round above
	m["aggregator.offered"] = float64(traced[0].offered)
	m["aggregator.offer_dropped_frac"] = float64(traced[0].dropped) / float64(traced[0].offered)
	m["aggregator.final_cut_ms"] = median(column(traced, func(r *fleetRound) float64 { return r.finalCutS })) * 1e3
	m["aggregator.figures_render_ms"] = median(column(traced, func(r *fleetRound) float64 { return r.renderS })) * 1e3
	m["resume.replayed_batches"] = float64(traced[0].replayed)
	m["resume.archive_scan_ms"] = ms(e.tr.durations(spArchiveScan), 0.5)
	m["resume.shortfall"] = float64(traced[0].shortfall)
	fleetDrives(spec, pl, median(column(traced, func(r *fleetRound) float64 { return r.ckptLoadS })), led, m)
	out.notef("fleet_durable: %d fsyncs taking %.3f s per round on %s", traced[0].fsyncs, m["archive.fsync_s"], fsName(e.dir))
	tracedWall := median(column(traced, func(r *fleetRound) float64 { return r.wallRound }))
	out.finishTrace(e, led, out.e2e["campaign_wall_s"], tracedWall)
	return out, nil
}

// lookupSink keeps the placement drive's result alive.
var lookupSink int

// fleetDrives books what no seam exposes on the durable path: a placement
// lookup, and archive iteration apart from checkpoint load inside Resume.
func fleetDrives(spec fleetSpec, pl Placement, loadS float64, led *ledger, m map[string]float64) {
	const lookups = 1 << 20
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		lookupSink += pl.ShardOf(uint32(i % spec.racks))
	}
	m["shard.placement_ns_per_lookup"] = float64(time.Since(t0)) / lookups
	m["checkpoint.load_ms"] = loadS * 1e3
	// Resume = checkpoint load + archive iteration (+ the replayed
	// batches' apply spans, which are children).
	iterS := led.self(spReplay) - led.count(spReplay)*loadS
	iterated := led.count(spReplayApply) * float64(spec.batch)
	if iterS > 0 && iterated > 0 {
		m["archive.iter_ns_per_sample"] = iterS / iterated * 1e9
	}
}
