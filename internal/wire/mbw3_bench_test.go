package wire

import (
	"bytes"
	"testing"

	"mburst/internal/asic"
	"mburst/internal/simclock"
)

// The codec benchmarks encode and decode three deterministic batch
// streams shaped like the agents of the repository benchmark's ingest
// workloads (bench/), and report ns/sample, B/sample and allocs/op. They
// gate nothing; scripts/ci.sh runs each once so that they keep building.
//
//	go test -run '^$' -bench 'MBW3' -benchmem ./internal/wire

// codecShape is one stream the codec benchmarks run: batches of batch
// samples of one rack polling its counters every 25 µs — one TX byte
// counter, or the full counter set of bench's racks: the buffer peak plus
// TX bytes and TX size bins on each of 20 ports — through one warm Writer
// and Reader, or through a fresh Writer and Reader every fresh batches,
// each pair carrying the stream from its start.
type codecShape struct {
	name          string
	batch, series int
	fresh         int
}

var codecShapes = []codecShape{
	{name: "smallbatch", batch: 32, series: 1},          // ingest_smallbatch
	{name: "durable", batch: 512, series: 41, fresh: 3}, // fleet_durable
	{name: "live", batch: 2048, series: 41},             // ingest_live
}

// shapeStream is one period of a shape's stream. A fresh shape's period
// is its group of fresh batches. A warm shape's is whole polls, at least
// 16,384 samples of them, and advance turns it into the next period:
// every time later by the period's span and every cumulative counter
// higher by what it gained over the period, so that the stream's deltas
// repeat period after period and the chain stays warm across the seam.
type shapeStream struct {
	batches []*Batch
	series  int
	span    int64
	adv     []Sample // per series, what the period adds
}

// stream draws a shape's period from a fixed generator: a counter's
// bytes idle one poll in four and otherwise up to a 10 Gb/s link's 31 KB,
// size-bin counters that follow them, and a buffer-peak register.
func (sh codecShape) stream() *shapeStream {
	batches := sh.fresh
	if batches == 0 {
		for batches = 1; batches*sh.batch%sh.series != 0; batches++ {
		}
		for batches*sh.batch < 16_384 {
			batches *= 2
		}
	}
	polls := (batches*sh.batch + sh.series - 1) / sh.series
	st := &shapeStream{series: sh.series, span: int64(polls) * 25_000, adv: make([]Sample, sh.series)}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	cur := st.adv // the counters, from zero: after the last poll, what a period adds
	for i := range cur {
		switch {
		case sh.series == 1:
			cur[i] = Sample{Port: 5, Dir: asic.TX, Kind: asic.KindBytes}
		case i == 0:
			cur[i] = Sample{Kind: asic.KindBufferPeak}
		case i%2 == 1:
			cur[i] = Sample{Port: uint16(i / 2), Dir: asic.TX, Kind: asic.KindBytes}
		default:
			cur[i] = Sample{Port: uint16(i/2 - 1), Dir: asic.TX, Kind: asic.KindSizeBins}
		}
	}
	all := make([]Sample, 0, polls*sh.series)
	for p := 0; p < polls; p++ {
		t := simclock.Time(int64(p)*25_000 + int64(rnd()>>62))
		var missed uint32
		if p%211 == 210 {
			missed = 1
		}
		for i := range cur {
			s, r := &cur[i], rnd()
			var inc uint64
			if r>>62 != 0 {
				inc = (r >> 33) % 31_250
			}
			switch s.Kind {
			case asic.KindBufferPeak:
				s.Value = (r >> 40) % 200_000
			case asic.KindSizeBins:
				s.Value += inc / 800
				for k := range s.Bins {
					s.Bins[k] += (r >> (8 * k)) & 3
				}
			default:
				s.Value += inc
			}
			s.Time, s.Missed = t, missed
			all = append(all, *s)
		}
	}
	if sh.series > 1 {
		st.adv[0].Value = 0 // the register is not cumulative
	}
	for k := 0; k < batches; k++ {
		st.batches = append(st.batches, &Batch{Rack: 7, Epoch: 1, Samples: all[k*sh.batch : (k+1)*sh.batch]})
	}
	return st
}

// advance moves a warm shape's period on to the next: its polls are
// whole, so sample j is of series j mod series.
func (st *shapeStream) advance() {
	j := 0
	for _, b := range st.batches {
		for i := range b.Samples {
			s, a := &b.Samples[i], &st.adv[j%st.series]
			s.Time += simclock.Time(st.span)
			s.Value += a.Value
			for k := range s.Bins {
				s.Bins[k] += a.Bins[k]
			}
			j++
		}
	}
}

// byteCount is an io.Writer that counts what it is given.
type byteCount int64

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// loop is an endless stream: head once, then body over and over.
type loop struct {
	head, body []byte
	at         int
}

func (l *loop) Read(p []byte) (int, error) {
	if len(l.head) > 0 {
		n := copy(p, l.head)
		l.head = l.head[n:]
		return n, nil
	}
	n := copy(p, l.body[l.at:])
	l.at = (l.at + n) % len(l.body)
	return n, nil
}

func reportPerSample(b *testing.B, samples int, bytes float64) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(samples), "ns/sample")
	b.ReportMetric(bytes/float64(samples), "B/sample")
}

// BenchmarkMBW3Encode writes one batch per op.
func BenchmarkMBW3Encode(b *testing.B) {
	for _, sh := range codecShapes {
		b.Run(sh.name, func(b *testing.B) {
			st := sh.stream()
			var out byteCount
			w := NewWriter(&out)
			if sh.fresh == 0 { // the chain is warm from a period before
				for _, batch := range st.batches {
					if err := w.WriteBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				st.advance()
				out = 0
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(st.batches)
				switch {
				case sh.fresh > 0 && k == 0:
					w = NewWriter(&out)
				case sh.fresh == 0 && k == 0 && i > 0:
					b.StopTimer()
					st.advance()
					b.StartTimer()
				}
				if err := w.WriteBatch(st.batches[k]); err != nil {
					b.Fatal(err)
				}
			}
			reportPerSample(b, b.N*sh.batch, float64(out))
		})
	}
}

// BenchmarkMBW3Decode reads one batch per op of what one Writer wrote: a
// fresh shape's group, each time through a fresh Reader, or a warm
// shape's second period over and over, through one Reader that buffers
// its source, its chain primed by the first period. A warm period's
// frames are checked to repeat byte for byte, so the loop is one stream.
func BenchmarkMBW3Decode(b *testing.B) {
	for _, sh := range codecShapes {
		b.Run(sh.name, func(b *testing.B) {
			st := sh.stream()
			periods := 3
			if sh.fresh > 0 {
				periods = 1
			}
			var enc bytes.Buffer
			w := NewWriter(&enc)
			var ends []int
			for p := 0; p < periods; p++ {
				for _, batch := range st.batches {
					if err := w.WriteBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				st.advance()
				ends = append(ends, enc.Len())
			}
			all := enc.Bytes()
			body := all
			var r *Reader
			if sh.fresh == 0 {
				body = all[ends[0]:ends[1]]
				if !bytes.Equal(body, all[ends[1]:]) {
					b.Fatal("a period's frames do not repeat")
				}
				r = NewReader(&loop{head: all[:ends[0]], body: body})
				r.SetReuse(true)
				for range st.batches {
					if _, err := r.ReadBatch(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sh.fresh > 0 && i%sh.fresh == 0 {
					r = NewReader(bytes.NewReader(body))
					r.SetReuse(true)
				}
				got, err := r.ReadBatch()
				if err != nil || len(got.Samples) != sh.batch {
					b.Fatalf("batch %d: %v", i, err)
				}
			}
			reportPerSample(b, b.N*sh.batch, float64(b.N)*float64(len(body))/float64(len(st.batches)))
		})
	}
}
