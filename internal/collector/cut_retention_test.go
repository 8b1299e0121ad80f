//go:build go1.24

// Weak pointers arrived in Go 1.24; the module's go line is older, so
// this file builds only with a toolchain that has them.

package collector

import (
	"runtime"
	"testing"
	"weak"

	"mburst/internal/asic"
	"mburst/internal/wire"
)

// TestQuietRackPinsOneSlab: a rack whose series stop being fed keeps its
// last SeriesStates, and with them the slab they were cut from, but no
// more than that one slab: after 100 further cuts, the SeriesStates other
// series have since replaced that are still alive — counted through weak
// pointers after a collection — are at most the rest of one slab per
// quiet rack. Every other rack going quiet is the case of a failing
// fleet; one rack alone shows that a slab holds at most cutSlabSeries.
func TestQuietRackPinsOneSlab(t *testing.T) {
	const racks, ports = 32, 4 // 8 series a rack, 256 in all
	for _, c := range []struct {
		what  string
		quiet func(rack uint32) bool
	}{
		{"every other rack", func(rack uint32) bool { return rack%2 == 1 }},
		{"one rack", func(rack uint32) bool { return rack == 13 }},
	} {
		f, feed := newCkptFigures(t), newCutFeeder()
		round := func(fed func(rack uint32) bool) {
			for rack := uint32(0); rack < racks; rack++ {
				if !fed(rack) {
					continue
				}
				b := &wire.Batch{Rack: rack, Epoch: 1}
				for port := uint16(0); port < ports; port++ {
					for _, dir := range []asic.Direction{asic.RX, asic.TX} {
						b.Samples = append(b.Samples, feed.next(seriesID{Rack: rack, Port: port, Dir: dir, Kind: asic.KindBytes}))
					}
				}
				f.Handle(b)
			}
		}
		last := make(map[seriesID]*SeriesState)
		var replaced []weak.Pointer[SeriesState]
		cut := func() {
			for _, s := range f.State().Series {
				if old := last[s.id()]; old != nil && old != s {
					replaced = append(replaced, weak.Make(old))
				}
				last[s.id()] = s
			}
		}
		for i := 0; i < 3; i++ {
			round(func(uint32) bool { return true })
			cut()
		}
		quiet := 0
		for rack := uint32(0); rack < racks; rack++ {
			if c.quiet(rack) {
				quiet++
			}
		}
		for i := 0; i < 100; i++ {
			round(func(rack uint32) bool { return !c.quiet(rack) })
			cut()
		}
		clear(last)
		runtime.GC()
		alive := 0
		for _, w := range replaced {
			if w.Value() != nil {
				alive++
			}
		}
		// A slab holds at most 64 series (cutSlabSeries), the quiet
		// rack's own among them.
		if bound := quiet * (64 - 2*ports); alive > bound {
			t.Errorf("%s: %d quiet racks keep %d replaced SeriesStates alive, want at most %d (the rest of one slab each)",
				c.what, quiet, alive, bound)
		}
		runtime.KeepAlive(f)
	}
}
