package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"sync/atomic"
	"time"
)

// ingestSpec sizes one live-ingest workload. A round is fixed work: every
// rack ships batchesA full batches closed-loop (phase A), then batchesB
// more on an open-loop schedule of rateB samples/s (phase B).
type ingestSpec struct {
	name     string
	racks    int
	kind     baseKind
	maxBatch int
	batchesA int
	batchesB int
	rateB    float64
	isoBatch int // batches per single-layer drive (-trace)
}

func (s ingestSpec) scaled(quick bool) ingestSpec {
	if quick {
		s.batchesA = max(s.batchesA/20, 8)
		s.batchesB = max(s.batchesB/20, 12)
		s.isoBatch = max(s.isoBatch/20, 8)
	}
	return s
}

const baseDurMs = 100

var (
	// ingest_live: 4 racks × the full counter set, big batches: ~6.5M
	// samples per round closed-loop, then 0.5 s at 1M samples/s.
	liveSpec = ingestSpec{name: "ingest_live", racks: 4, kind: baseFullCounters,
		maxBatch: 2048, batchesA: 800, batchesB: 61, rateB: 1e6, isoBatch: 200}
	// ingest_smallbatch: 16 racks × one byte counter, 32-sample batches:
	// ~2M samples (64k batches) per round closed-loop, then 0.3 s at
	// 1.6M samples/s (50k batches/s, about a third of saturation).
	smallSpec = ingestSpec{name: "ingest_smallbatch", racks: 16, kind: baseSingleByte,
		maxBatch: 32, batchesA: 4000, batchesB: 1000, rateB: 1.6e6, isoBatch: 4000}
)

// rackSink is the server-side tail of one rack's handler chain. Only that
// rack's connection goroutine touches seq and lat; due is written by the
// generator before the batch is sent.
type rackSink struct {
	seq int
	due []atomic.Int64 // phase-B due times, ns since the run epoch
	lat []float64      // phase-B due → applied, seconds
}

// applySink ends the handler chain: it counts what reached "figures
// applied" and, for open-loop batches, stamps the latency.
type applySink struct {
	epoch   time.Time
	nA      int
	racks   []rackSink
	applied atomic.Int64 // samples
	target  atomic.Int64
	reached chan struct{}
}

func newApplySink(epoch time.Time, spec ingestSpec) *applySink {
	a := &applySink{epoch: epoch, nA: spec.batchesA, racks: make([]rackSink, spec.racks), reached: make(chan struct{}, 1)}
	for r := range a.racks {
		a.racks[r].due = make([]atomic.Int64, spec.batchesB)
		a.racks[r].lat = make([]float64, 0, spec.batchesB)
	}
	return a
}

func (a *applySink) handle(b *Batch) {
	rs := &a.racks[b.Rack]
	if i := rs.seq - a.nA; i >= 0 {
		rs.lat = append(rs.lat, float64(int64(time.Since(a.epoch))-rs.due[i].Load())/1e9)
	}
	rs.seq++
	if a.applied.Add(int64(len(b.Samples))) == a.target.Load() {
		a.reached <- struct{}{}
	}
}

func (a *applySink) await(what string) error {
	select {
	case <-a.reached:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s: applied %d of %d samples after 60s", what, a.applied.Load(), a.target.Load())
	}
}

// tracedConn stamps the server side's reads: the handler turns the stamps
// into one conn.read span and one decode_gate span per batch.
type tracedConn struct {
	net.Conn
	b           *spanBuf
	first, last int64
	reading     bool
}

func (c *tracedConn) Read(p []byte) (int, error) {
	t0 := c.b.now()
	n, err := c.Conn.Read(p)
	if !c.reading {
		c.first, c.reading = t0, true
	}
	c.last = c.b.now()
	return n, err
}

// tracedListener wraps accepted connections and hands them back to the
// harness, which pairs them with racks by address.
type tracedListener struct {
	net.Listener
	tr       *tracer
	accepted chan *tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, b: l.tr.buf()}
	l.accepted <- tc
	return tc, nil
}

// tracedWriter times the client's transport writes.
type tracedWriter struct {
	w  io.Writer
	b  *spanBuf
	id *uint64
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	t.b.begin(spConnWrite, *t.id)
	n, err := t.w.Write(p)
	t.b.end()
	return n, err
}

// countWriter counts the agent-side framed bytes.
type countWriter struct {
	w io.Writer
	n *int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// ingestRound is what one round measured.
type ingestRound struct {
	wallA, wallRound  float64
	cpu               float64 // phase A only: phase B spins on the schedule
	samplesA, samples int64
	batches           int64
	wireBytes         int64
	lat, late         []float64
	snapshot          FiguresSnapshot
	snapshotS         float64
	failures          []string
}

// runIngestRound builds a fresh pipeline, drives one round through it and
// tears it down. tr == nil runs it untraced.
func runIngestRound(spec ingestSpec, streams []*stream, tr *tracer) (*ingestRound, error) {
	rd := &ingestRound{}
	epoch := time.Now()
	sink := newApplySink(epoch, spec)
	stats := &IngestStats{}
	figs, err := newFigures()
	if err != nil {
		return nil, err
	}
	gate := newGateCounters()

	var ln net.Listener
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var tl *tracedListener
	srvConns := make([]*tracedConn, spec.racks)
	var handler BatchHandler
	if tr == nil {
		handler = statsWrap(stats, figuresWrap(figs, sink.handle))
	} else {
		tl = &tracedListener{Listener: ln, tr: tr, accepted: make(chan *tracedConn, spec.racks)}
		ln = tl
		inner := figuresWrap(figs, sink.handle)
		mid := statsWrap(stats, func(b *Batch) {
			sb := srvConns[b.Rack].b
			sb.begin(spFigures, batchID(b.Rack, sink.racks[b.Rack].seq))
			inner(b)
			sb.end()
		})
		handler = func(b *Batch) {
			c := srvConns[b.Rack]
			id := batchID(b.Rack, sink.racks[b.Rack].seq)
			c.b.add(spConnRead, id, c.first, c.last)
			c.b.add(spDecodeGate, id, c.last, c.b.now())
			c.reading = false
			c.b.begin(spStats, id)
			mid(b)
			c.b.end()
		}
	}
	srv := serveLive(ln, handler, gate)
	defer srv.Close()

	gbuf := tr.buf()
	var spanID uint64
	clients := make([]*Client, spec.racks)
	byAddr := map[string]int{}
	for r := range clients {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return nil, err
		}
		byAddr[conn.LocalAddr().String()] = r
		var w io.Writer = conn
		if tr != nil {
			w = &tracedWriter{w: w, b: gbuf, id: &spanID}
		}
		clients[r], err = newClient(closingWriter{countWriter{w, &rd.wireBytes}, conn}, uint32(r), spec.maxBatch)
		if err != nil {
			return nil, err
		}
	}
	if tl != nil {
		for range clients {
			tc := <-tl.accepted
			srvConns[byAddr[tc.RemoteAddr().String()]] = tc
		}
	}

	cursors := make([]cursor, spec.racks)
	for r := range cursors {
		cursors[r].s = streams[r]
	}
	scratch := make([]Sample, spec.maxBatch)
	emit := func(r int, seq int) {
		spanID = batchID(uint32(r), seq)
		gbuf.begin(spGenFill, spanID)
		cursors[r].fill(scratch)
		gbuf.end()
	}
	send := func(r int) {
		gbuf.begin(spClientBatch, spanID)
		c := clients[r]
		for i := range scratch {
			c.Emit(scratch[i])
		}
		gbuf.end()
	}

	// Phase A: closed loop at saturation (TCP back pressure paces the
	// generator).
	rd.samplesA = int64(spec.racks * spec.batchesA * spec.maxBatch)
	sink.target.Store(rd.samplesA)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	gbuf.begin(spRound, 0)
	for it := 0; it < spec.batchesA; it++ {
		for r := range clients {
			emit(r, it)
			send(r)
		}
	}
	gbuf.begin(spWait, 0)
	err = sink.await(spec.name + " phase A")
	gbuf.end()
	if err != nil {
		return nil, err
	}
	rd.wallA = time.Since(t0).Seconds()
	rd.cpu = cpuSeconds() - cpu0

	// Phase B: open loop at a fixed rate; batch j is due at tB + j × gap
	// whether or not the pipeline kept up.
	rd.samples = rd.samplesA + int64(spec.racks*spec.batchesB*spec.maxBatch)
	sink.target.Store(rd.samples)
	gap := time.Duration(float64(spec.maxBatch) / spec.rateB * float64(time.Second))
	tB := time.Now().Add(time.Millisecond)
	j := 0
	for it := 0; it < spec.batchesB; it++ {
		for r := range clients {
			emit(r, spec.batchesA+it)
			due := tB.Add(time.Duration(j) * gap)
			j++
			gbuf.begin(spWait, spanID)
			waitUntil(due)
			gbuf.end()
			rd.late = append(rd.late, time.Since(due).Seconds())
			sink.racks[r].due[it].Store(int64(due.Sub(epoch)))
			send(r)
		}
	}
	gbuf.begin(spWait, 0)
	err = sink.await(spec.name + " phase B")
	gbuf.end()
	if err != nil {
		return nil, err
	}
	gbuf.end()
	ts := time.Now()
	rd.snapshot = figs.Snapshot()
	rd.snapshotS = time.Since(ts).Seconds()
	rd.wallRound = time.Since(t0).Seconds()

	for _, c := range clients {
		if err := c.Close(); err != nil {
			rd.failures = append(rd.failures, "client close: "+err.Error())
		}
	}
	if err := srv.Close(); err != nil {
		rd.failures = append(rd.failures, "server close: "+err.Error())
	}
	for r := range sink.racks {
		rd.lat = append(rd.lat, sink.racks[r].lat...)
	}
	rd.batches = int64(spec.racks * (spec.batchesA + spec.batchesB))

	// Conservation: emitted == admitted == applied, nothing dropped,
	// nothing latched, nothing failed to decode.
	snap := stats.Snapshot()
	check := func(ok bool, format string, args ...any) {
		if !ok {
			rd.failures = append(rd.failures, fmt.Sprintf(format, args...))
		}
	}
	check(int64(snap.Samples) == rd.samples, "admitted %d samples, emitted %d", snap.Samples, rd.samples)
	check(sink.applied.Load() == rd.samples, "applied %d samples, emitted %d", sink.applied.Load(), rd.samples)
	check(int64(snap.Batches) == rd.batches, "admitted %d batches, emitted %d", snap.Batches, rd.batches)
	check(gate.dropped() == 0, "gate dropped %d batches", gate.dropped())
	check(gate.decodeErrors() == 0, "%d decode errors", gate.decodeErrors())
	check(latchedSeries(figs) == 0, "%d latched series", latchedSeries(figs))
	check(srv.LastErr() == nil, "server error: %v", srv.LastErr())
	return rd, nil
}

// closingWriter lets Client.Close close the connection under the
// counting/timing writers.
type closingWriter struct {
	io.Writer
	c io.Closer
}

func (c closingWriter) Close() error { return c.c.Close() }

func batchID(rack uint32, seq int) uint64 { return uint64(rack)<<32 | uint64(uint32(seq)) }

// waitUntil sleeps to within a millisecond of t, then spins until it
// passes. The spin must not yield: a goroutine that keeps calling Gosched
// stays runnable, so its P never polls the network and the server side's
// wake-ups wait for sysmon (milliseconds). The generator owns one core
// during phase B, which is why cpu_s covers phase A only.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		}
	}
}

// ingestBase simulates the workload's base streams (the set-up).
func ingestBase(e *env, spec ingestSpec) ([]*stream, error) {
	base, err := simulateBase(e.ctx, e.seed, spec.racks, spec.kind, baseDurMs)
	if err != nil {
		return nil, err
	}
	streams := make([]*stream, len(base))
	for r := range base {
		if len(base[r]) == 0 {
			return nil, fmt.Errorf("%s: rack %d simulated no samples", spec.name, r)
		}
		streams[r] = newStream(base[r], baseDurMs)
	}
	return streams, nil
}

// referenceSnapshot feeds the round's batches straight into a fresh
// LiveFigures, in process and outside the timed region: what the pipeline
// must have computed. It doubles as the isolated figures drive.
func referenceSnapshot(spec ingestSpec, streams []*stream) (*reference, error) {
	ref, err := newFigures()
	if err != nil {
		return nil, err
	}
	var feedS float64
	var samples int
	b := &Batch{Epoch: 1, Samples: make([]Sample, spec.maxBatch)}
	for r := range streams {
		c := cursor{s: streams[r]}
		b.Rack = uint32(r)
		for it := 0; it < spec.batchesA+spec.batchesB; it++ {
			c.fill(b.Samples)
			t0 := time.Now()
			ref.Handle(b)
			feedS += time.Since(t0).Seconds()
			samples += len(b.Samples)
		}
	}
	return &reference{snap: ref.Snapshot(), nsPerSample: feedS / float64(samples) * 1e9}, nil
}

// reference is the in-process figures run the pipeline is checked against.
type reference struct {
	snap        FiguresSnapshot
	nsPerSample float64 // LiveFigures.Handle alone, over every sample of a round
}

func runIngest(e *env, spec ingestSpec) (*outcome, error) {
	spec = spec.scaled(e.quick)
	out := newOutcome()

	var streams []*stream
	setup, err := e.timeSetup(func() error {
		var err error
		streams, err = ingestBase(e, spec)
		return err
	})
	if err != nil {
		return nil, err
	}
	ref, err := referenceSnapshot(spec, streams)
	if err != nil {
		return nil, err
	}

	var rounds []*ingestRound
	nPlain, err := e.rounds(func(i int, tr *tracer) error {
		rd, err := runIngestRound(spec, streams, tr)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rd.snapshot, ref.snap) {
			rd.failures = append(rd.failures, "final figures snapshot differs from the in-process reference")
		}
		out.attempted += rd.samples
		for _, f := range rd.failures {
			out.fail(1, "%s round %d: %s", spec.name, i, f)
		}
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := rounds[:nPlain], rounds[nPlain:]
	var lat, late []float64
	for _, r := range plain {
		lat = append(lat, r.lat...)
		late = append(late, r.late...)
	}
	rate := median(column(plain, func(r *ingestRound) float64 { return float64(r.samplesA) / r.wallA }))
	wallA := median(column(plain, func(r *ingestRound) float64 { return r.wallA }))
	out.e2e["setup_s"] = setup
	out.e2e["campaign_wall_s"] = median(column(plain, func(r *ingestRound) float64 { return r.wallRound }))
	out.e2e["ingest_samples_per_s"] = rate
	out.e2e["wire_bytes_per_sample"] = float64(rounds[0].wireBytes) / float64(rounds[0].samples)
	out.e2e["batch_latency_p50_ms"] = median(lat) * 1e3
	out.e2e["resume_s"] = wallA
	out.e2e["cpu_s"] = median(column(plain, func(r *ingestRound) float64 { return r.cpu }))
	out.notef("%s: %d untraced rounds; phase A %d samples/round closed loop; phase B %.0f samples/s open loop: latency %s; generator late %s",
		spec.name, len(plain), rounds[0].samplesA, spec.rateB, summary(lat), summary(late))

	out.notef("%s: untraced phase-A walls %.3f s", spec.name, column(plain, func(r *ingestRound) float64 { return r.wallA }))
	if e.tr == nil {
		return out, nil
	}
	led := e.tr.ledger()
	batches := led.count(spStats)
	samples := float64(traced[0].samples) * float64(len(traced))
	m := out.layer
	if err := ingestDrives(spec, streams, m); err != nil {
		return nil, err
	}
	m["client.flush_ns_per_batch"] = led.self(spConnWrite) / led.count(spConnWrite) * 1e9
	m["transport.bytes"] = float64(rounds[0].wireBytes)
	m["transport.batch_latency_p99_ms"] = quantile(sorted(lat), 0.99) * 1e3
	m["transport.generator_late_ms_p99"] = quantile(sorted(late), 0.99) * 1e3
	m["gate.dropped_batches"] = 0 // asserted per round above
	// The two mutex-guarded stages: cost alone from the drives, and the
	// share of their in-pipeline span time that was waiting (for the
	// stage's lock, or for a P while holding it).
	m["ingeststats.wait_frac"] = math.Max(0, 1-m["ingeststats.ns_per_batch"]*batches/1e9/led.self(spStats))
	m["figures.ns_per_sample"] = ref.nsPerSample
	m["figures.wait_frac"] = math.Max(0, 1-m["figures.ns_per_sample"]*samples/1e9/led.self(spFigures))
	m["figures.series"] = float64(len(ref.snap.Series))
	m["figures.latched_series"] = 0 // asserted per round above
	m["figures.snapshot_ms"] = median(column(rounds, func(r *ingestRound) float64 { return r.snapshotS })) * 1e3
	m["wire.bytes_per_sample"] = out.e2e["wire_bytes_per_sample"]
	// No seam separates encode from the client's flush, or the gate from
	// the decode before it: rebook what the drives measured.
	led.move("client", "wire", m["wire.encode_ns_per_sample"]*samples/1e9)
	led.move("wire", "gate", m["gate.ns_per_batch"]*batches/1e9)
	led.moveToWait("ingeststats", m["ingeststats.wait_frac"]*led.self(spStats))
	led.moveToWait("figures", m["figures.wait_frac"]*led.self(spFigures))
	out.finishTrace(e, led, wallA, median(column(traced, func(r *ingestRound) float64 { return r.wallA })))
	return out, nil
}

// ingestDrives runs each ingest layer alone on the workload's own
// batches, for the costs no seam exposes inside the live pipeline.
func ingestDrives(spec ingestSpec, streams []*stream, m map[string]float64) error {
	n := spec.isoBatch
	batches := make([]*Batch, n)
	c := cursor{s: streams[0]}
	var samples float64
	for i := range batches {
		batches[i] = &Batch{Rack: 0, Epoch: 1, Samples: make([]Sample, spec.maxBatch)}
		c.fill(batches[i].Samples)
		samples += float64(spec.maxBatch)
	}
	// wire: encode and decode alone, through a memory buffer.
	var stream bytes.Buffer
	encNs, _, err := timed(func() error {
		stream.Reset()
		w, err := newWireWriter(&stream)
		if err != nil {
			return err
		}
		for _, b := range batches {
			if err := w.WriteBatch(b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	encoded := append([]byte(nil), stream.Bytes()...)
	rd := newWireReader(bytes.NewReader(encoded))
	if _, err := drain(rd); err != nil { // warm the reader's buffers
		return err
	}
	decNs, decAllocs, err := timed(func() error {
		rd.Reset(bytes.NewReader(encoded))
		_, err := drain(rd)
		return err
	})
	if err != nil {
		return err
	}
	m["wire.encode_ns_per_sample"] = encNs / samples
	m["wire.encode_ns_per_batch"] = encNs / float64(n)
	m["wire.decode_ns_per_sample"] = decNs / samples
	m["wire.decode_ns_per_batch"] = decNs / float64(n)
	m["wire.decode_allocs_per_batch"] = decAllocs / float64(n)

	// client: Emit + flush into a discarding writer (emit + encode, no
	// transport).
	cliNs, cliAllocs, err := timed(func() error {
		cl, err := newClient(io.Discard, 0, spec.maxBatch)
		if err != nil {
			return err
		}
		for _, b := range batches {
			for i := range b.Samples {
				cl.Emit(b.Samples[i])
			}
		}
		return cl.Flush()
	})
	if err != nil {
		return err
	}
	m["client.emit_ns_per_sample"] = cliNs / samples
	m["client.allocs_per_batch"] = cliAllocs / float64(n)

	// transport: the encoded stream over loopback into a Server whose
	// handler does nothing (loopback copy + framing reads + decode + gate).
	frame := len(encoded)/n + 1
	trNs, _, err := timed(func() error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		var got atomic.Int64
		done := make(chan struct{}, 1)
		srv := serveLive(ln, func(*Batch) {
			if got.Add(1) == int64(n) {
				done <- struct{}{}
			}
		}, newGateCounters())
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			return err
		}
		defer conn.Close()
		for off := 0; off < len(encoded); off += frame {
			if _, err := conn.Write(encoded[off:min(off+frame, len(encoded))]); err != nil {
				return err
			}
		}
		select {
		case <-done:
			return nil
		case <-time.After(60 * time.Second):
			return errors.New("transport drive: server did not drain the stream")
		}
	})
	if err != nil {
		return err
	}
	m["transport.ns_per_batch"] = trNs / float64(n)

	// gate and ingeststats: the middleware alone on decoded batches.
	gateNs, _, _ := timed(func() error {
		gate := newGate(func(*Batch) {})
		for _, b := range batches {
			gate(b)
		}
		return nil
	})
	m["gate.ns_per_batch"] = gateNs / float64(n)
	statsNs, _, _ := timed(func() error {
		account := statsWrap(&IngestStats{}, nil)
		for _, b := range batches {
			account(b)
		}
		return nil
	})
	m["ingeststats.ns_per_batch"] = statsNs / float64(n)

	// analysis: the accumulator set alone on one rack's byte samples.
	var byteSamples []Sample
	for _, b := range batches {
		for _, s := range b.Samples {
			if s.Kind == kindBytes && s.Port < 256 {
				byteSamples = append(byteSamples, s)
			}
		}
	}
	anNs, anAllocs, _ := timed(func() error {
		var feeds [256]*analysisFeed
		for i := range byteSamples {
			f := feeds[byteSamples[i].Port]
			if f == nil {
				f = newAnalysisFeed(portSpeed(byteSamples[i].Port))
				feeds[byteSamples[i].Port] = f
			}
			f.feed(byteSamples[i])
		}
		return nil
	})
	m["analysis.ns_per_sample"] = anNs / float64(len(byteSamples))
	m["analysis.allocs_per_sample"] = anAllocs / float64(len(byteSamples))
	return nil
}

// drain reads a wire stream to EOF and returns the batches seen.
func drain(rd *WireReader) (int, error) {
	n := 0
	for {
		_, err := rd.ReadBatch()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
