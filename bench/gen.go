package main

// gen.go is the seeded tiled-stream generator. The benchmark's seed
// reaches the program only through here: set-up simulates a few racks
// with the seed, and the timed region replays those base streams as many
// times ("tiles") as the workload needs. Tile k is the base stream with
// Time shifted by k × span and every cumulative counter rebased by k ×
// (its total advance over the base), so each series stays a valid
// monotonic counter across tile seams: the epoch gate drops nothing and
// no utilization converter latches. Clear-on-read registers (the
// buffer-peak) are not cumulative and replay untouched.
//
// Everything a sample needs is looked up once, in newStream; fill does
// array arithmetic only, so the timed numbers measure the program, not
// the generator.

// stream is one rack's base samples plus their per-tile advances.
type stream struct {
	base []Sample
	// dv[i] is how far sample i's cumulative Value advances per tile
	// (0 for registers).
	dv []uint64
	// db[i] indexes bins for a size-bin sample, -1 otherwise.
	db   []int32
	bins [][numSizeBins]uint64
	span int64 // tile length in simulated ns
}

type seriesID struct {
	port uint16
	dir  uint8
	kind uint8
}

// newStream precomputes the tile advances of one rack's base stream.
func newStream(base []Sample, durMs int) *stream {
	s := &stream{
		base: base,
		dv:   make([]uint64, len(base)),
		db:   make([]int32, len(base)),
		span: tileSpan(durMs),
	}
	type ends struct {
		first, last int
		bin         int32
	}
	series := map[seriesID]*ends{}
	for i := range base {
		b := &base[i]
		id := seriesID{b.Port, uint8(b.Dir), uint8(b.Kind)}
		e := series[id]
		if e == nil {
			e = &ends{first: i, bin: -1}
			series[id] = e
		}
		e.last = i
	}
	for i := range base {
		b := &base[i]
		s.db[i] = -1
		if b.Kind == kindBufferPeak {
			continue
		}
		e := series[seriesID{b.Port, uint8(b.Dir), uint8(b.Kind)}]
		first, last := &base[e.first], &base[e.last]
		s.dv[i] = last.Value - first.Value
		if b.Kind == kindSizeBins {
			if e.bin < 0 {
				var adv [numSizeBins]uint64
				for j := range adv {
					adv[j] = last.Bins[j] - first.Bins[j]
				}
				e.bin = int32(len(s.bins))
				s.bins = append(s.bins, adv)
			}
			s.db[i] = e.bin
		}
	}
	return s
}

// cursor walks a stream tile after tile.
type cursor struct {
	s    *stream
	tile uint64
	idx  int
}

// fill writes the next len(dst) samples of the tiled stream into dst.
func (c *cursor) fill(dst []Sample) {
	s := c.s
	for i := range dst {
		if c.idx == len(s.base) {
			c.idx = 0
			c.tile++
		}
		d := &dst[i]
		*d = s.base[c.idx]
		setSimNanos(d, simNanos(d)+int64(c.tile)*s.span)
		d.Value += c.tile * s.dv[c.idx]
		if bi := s.db[c.idx]; bi >= 0 {
			adv := &s.bins[bi]
			for j := range d.Bins {
				d.Bins[j] += c.tile * adv[j]
			}
		}
		c.idx++
	}
}
