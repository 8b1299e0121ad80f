// Command mbdump inspects recorded batches — a file holding any
// concatenation of wire batches (one archive segment, say), a segmented
// archive directory written by mbcollectd -archive, a recorded campaign
// directory written by mbsim -out, or a fleet campaign directory written
// by mbfleet -out: per-batch summaries, per-counter totals, and
// optionally the first samples decoded.
//
// Usage:
//
//	mbdump -in seg_000001.mbw [-samples 10] [-quiet]
//	mbdump -in /var/lib/mburst/archive   # segmented archive directory
//	mbdump -in /var/lib/mburst/campaign  # recorded campaign directory
//	mbdump -in /var/lib/mburst/fleet     # fleet campaign directory
//	mbdump -checkpoint /var/lib/mburst/archive/checkpoint.mbc | jq .ingest
//
// A plain directory is decoded through the archive manifest in segment
// order: the collector's admission order, and for a recorded campaign —
// an archive whose segment k+1 is window k — window order (a campaign
// recorded before that layout, window_NNNN.mbw files and no archive
// manifest, reads the same way). A fleet directory (one whose
// campaign.json carries a placement) is decoded as stored: each shard
// archive in turn, so each rack's batches in time order, with totals
// that do not depend on the worker count that wrote it; a misrouted
// batch fails the dump after the batches before it, as a torn tail
// does. Run mbcollectd -resume (or trace.RecoverArchive) first if a
// directory crashed mid-write; mbdump treats a torn tail as an error.
//
// With -checkpoint the input is a shard checkpoint instead (the
// checkpoint.mbc beside a durable archive, or the checkpoint.json an
// older build left there): the state is printed to stdout as indented
// JSON — what `jq .` showed when checkpoints were JSON — after one
// summary line on stderr naming the encoding, size, series, racks and
// archive mark, so the output pipes cleanly.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mburst/internal/analysis"
	"mburst/internal/collector"
	"mburst/internal/simclock"
	"mburst/internal/trace"
	"mburst/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, flag parsing included, and returns the exit
// code: 2 for a usage error, 1 for an input it cannot read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbdump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "batch file, or archive, recorded-campaign or fleet directory to inspect (required)")
	showSamples := fs.Int("samples", 0, "print the first N samples decoded")
	quiet := fs.Bool("quiet", false, "suppress per-batch lines, print only totals")
	checkpoint := fs.String("checkpoint", "", "shard checkpoint (MBC1 or legacy JSON) to print as indented JSON, instead of -in")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if (*in == "") == (*checkpoint == "") {
		fmt.Fprintln(stderr, "mbdump: exactly one of -in and -checkpoint is required")
		return 2
	}
	var err error
	if *checkpoint != "" {
		err = dumpCheckpoint(stdout, stderr, *checkpoint)
	} else {
		err = dumpBatches(stdout, *in, *showSamples, *quiet)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mbdump: %v\n", err)
		return 1
	}
	return 0
}

// dumpCheckpoint prints the shard checkpoint at path: one summary line
// to summary, then the state as indented JSON (the struct tags are the
// schema) to w — the same JSON whichever encoding the file is in.
func dumpCheckpoint(w, summary io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	st, _, err := collector.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	encoding := "json"
	if bytes.HasPrefix(data, []byte(collector.CheckpointMagic)) {
		encoding = collector.CheckpointMagic
	}
	series := 0
	if st.Figures != nil {
		series = len(st.Figures.Series)
	}
	fmt.Fprintf(summary, "checkpoint: encoding %s, %d bytes, %d series, %d racks, archived_batches %d\n",
		encoding, len(data), series, len(st.Gate), st.ArchivedBatches)
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// dumpBatches decodes the input and writes the report to w.
func dumpBatches(w io.Writer, in string, showSamples int, quiet bool) error {
	var (
		batches, samples int
		printed          int
		perSeries        = map[analysis.SeriesKey]int{}
		firstT, lastT    simclock.Time
		seen             bool
	)
	dump := func(b *wire.Batch) {
		batches++
		samples += len(b.Samples)
		if !quiet {
			var span simclock.Duration
			if n := len(b.Samples); n > 0 {
				span = b.Samples[n-1].Time.Sub(b.Samples[0].Time)
			}
			fmt.Fprintf(w, "batch %4d: rack %d, %5d samples, %v of virtual time\n",
				batches, b.Rack, len(b.Samples), span)
		}
		for _, s := range b.Samples {
			if !seen || s.Time < firstT {
				firstT = s.Time
			}
			if !seen || s.Time > lastT {
				lastT = s.Time
			}
			seen = true
			perSeries[analysis.SeriesKey{Port: s.Port, Dir: s.Dir, Kind: s.Kind}]++
			if printed < showSamples {
				printed++
				fmt.Fprintf(w, "  sample t=%v port=%d %s/%s value=%d missed=%d\n",
					s.Time, s.Port, s.Dir, s.Kind, s.Value, s.Missed)
			}
		}
	}

	if fi, err := os.Stat(in); err == nil && fi.IsDir() {
		iter := trace.IterArchive
		if meta, ok, err := trace.FleetMeta(in); err != nil {
			return err
		} else if ok {
			iter = trace.IterFleet
			if !quiet {
				pl := meta.Placement
				fmt.Fprintf(w, "fleet: %d racks over %d shards, placement v%d seed %d\n",
					meta.Windows, pl.NumShards(), pl.Version, pl.Seed)
			}
		}
		if err := iter(in, func(b *wire.Batch) error {
			dump(b)
			return nil
		}); err != nil {
			return fmt.Errorf("after %d batches: %w", batches, err)
		}
	} else {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r := wire.NewReader(f)
		r.SetReuse(true) // dump keeps nothing of a batch
		for {
			b, err := r.ReadBatch()
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return fmt.Errorf("after %d batches: %w", batches, err)
			}
			dump(b)
		}
	}

	fmt.Fprintf(w, "\ntotal: %d batches, %d samples", batches, samples)
	if seen {
		fmt.Fprintf(w, ", virtual span %v", lastT.Sub(firstT))
	}
	fmt.Fprintln(w)
	for _, k := range analysis.SortedKeys(perSeries) {
		fmt.Fprintf(w, "  %-28s %d samples\n", k.String(), perSeries[k])
	}
	return nil
}
