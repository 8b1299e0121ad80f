// Command mbreplay streams a recorded campaign (an mbsim trace directory)
// into a collector service as live batches — for exercising mbcollectd
// deployments and dashboards with realistic data. The outgoing stream is
// MBW3 whatever format the trace was recorded in.
//
// Usage:
//
//	mbreplay -trace DIR -collector 127.0.0.1:9900 [-speedup 100] [-unpaced]
//	         [-maxgap 100ms]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mburst/internal/replay"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command — flag parsing included — returning the exit
// code. Split from main so the tests drive the exact production path.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbreplay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("trace", "", "trace directory (required)")
	collectorAddr := fs.String("collector", "127.0.0.1:9900", "mbcollectd address")
	speedup := fs.Float64("speedup", 100, "virtual-to-wall-clock speedup")
	unpaced := fs.Bool("unpaced", false, "stream as fast as the transport accepts")
	maxGap := fs.Duration("maxgap", 0, "cap any single pacing sleep (0 = replay gaps verbatim); useful for traces recorded under faults")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *dir == "" {
		fmt.Fprintln(stderr, "mbreplay: -trace is required")
		return 2
	}
	conn, err := net.DialTimeout("tcp", *collectorAddr, 5*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "mbreplay: %v\n", err)
		return 1
	}
	defer conn.Close()

	start := time.Now()
	st, err := replay.Run(ctx, *dir, conn, replay.Options{Speedup: *speedup, Unpaced: *unpaced, MaxGap: *maxGap})
	if err != nil {
		fmt.Fprintf(stderr, "mbreplay: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "mbreplay: %d windows, %d batches, %d samples (%v of virtual time, %d gap clamps) in %v\n",
		st.Windows, st.Batches, st.Samples, st.VirtualSpan, st.GapClamps, time.Since(start).Round(time.Millisecond))
	return 0
}
