package main

import (
	"crypto/sha256"
	"encoding/hex"
	"time"
	"unsafe"
)

// campaignWorkers is the worker pool of the timed campaign; the oracle
// reruns it at 1.
const campaignWorkers = 2

type campaignRound struct {
	wall, cpu      float64
	cells, samples float64
	sum            string
}

func reportSum(c *campaign, tr *spanBuf, e *env) (campaignRound, error) {
	var rd campaignRound
	cpu0 := cpuSeconds()
	t0 := time.Now()
	tr.begin(spRunAll, 0)
	rep, err := c.runAll(e.ctx)
	tr.end()
	rd.wall = time.Since(t0).Seconds()
	rd.cpu = cpuSeconds() - cpu0
	if err != nil {
		return rd, err
	}
	sum := sha256.Sum256([]byte(reportText(rep)))
	rd.sum = hex.EncodeToString(sum[:])
	rd.cells = c.counter("mburst_runner_cells_completed_total")
	rd.samples = c.counter("mburst_campaign_samples_total")
	return rd, nil
}

// runCampaign times core.Experiment.RunAll — every table and figure of
// the paper — on a fixed configuration. wire, transport and archive do no
// work here.
func runCampaign(e *env) (*outcome, error) {
	scale := campaignFull
	if e.quick {
		scale = campaignQuick
	}
	out := newOutcome()

	// Set-up: build an experiment and run one small campaign through it,
	// so the timed rounds start with a grown heap and warm caches.
	setup, err := e.timeSetup(func() error {
		c, err := newCampaign(e.seed, campaignWorkers, campaignQuick)
		if err != nil {
			return err
		}
		_, err = c.runAll(e.ctx)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Oracle: the same seed on one worker must format the same report.
	serialC, err := newCampaign(e.seed, 1, scale)
	if err != nil {
		return nil, err
	}
	serial, err := reportSum(serialC, nil, e)
	if err != nil {
		return nil, err
	}

	var rounds []campaignRound
	nPlain, err := e.rounds(func(i int, tr *tracer) error {
		c, err := newCampaign(e.seed, campaignWorkers, scale)
		if err != nil {
			return err
		}
		rd, err := reportSum(c, tr.buf(), e)
		if err != nil {
			return err
		}
		out.attempted += int64(rd.cells)
		if rd.sum != serial.sum {
			out.fail(int64(rd.cells), "campaign round %d: report sha256 %s differs from the Workers=1 report %s", i, rd.sum, serial.sum)
		}
		if rd.cells != serial.cells || rd.samples != serial.samples {
			out.fail(1, "campaign round %d: %v cells / %v samples, Workers=1 ran %v / %v", i, rd.cells, rd.samples, serial.cells, serial.samples)
		}
		rounds = append(rounds, rd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	plain, traced := rounds[:nPlain], rounds[nPlain:]
	roundWall := func(r campaignRound) float64 { return r.wall }
	walls := column(plain, roundWall)
	wall := median(walls)
	out.e2e["setup_s"] = setup
	out.e2e["campaign_wall_s"] = wall
	out.e2e["ingest_samples_per_s"] = serial.samples / wall
	// Nothing crosses a wire on this workload: a sample travels from the
	// poller to the analysis in memory, at the size of the Sample struct.
	out.e2e["wire_bytes_per_sample"] = float64(unsafe.Sizeof(Sample{}))
	// A campaign is one batch job and keeps no checkpoint: its latency,
	// and the cost of redoing it after a kill, are both the full run.
	out.e2e["batch_latency_p50_ms"] = wall * 1e3
	out.e2e["resume_s"] = wall
	out.e2e["cpu_s"] = median(column(plain, func(r campaignRound) float64 { return r.cpu }))
	out.notef("campaign: %d rounds of RunAll (%v cells, %v samples each) on %d workers; Workers=1 took %.3f s; report sha256 %s",
		len(rounds), serial.cells, serial.samples, campaignWorkers, serial.wall, serial.sum[:16])
	out.notef("campaign: untraced round walls %.3f s", walls)

	if e.tr == nil {
		return out, nil
	}
	m := out.layer
	m["runner.cells"] = serial.cells
	m["runner.serial_wall_s"] = serial.wall
	m["runner.parallel_efficiency"] = serial.wall / (campaignWorkers * wall)
	model, err := campaignDrives(e, serialC, serial, m)
	if err != nil {
		return nil, err
	}
	out.finishTrace(e, e.tr.ledger(), wall, median(column(traced, roundWall)))
	// RunAll is opaque to the harness, so this workload's ledger is a
	// model: each layer's cost alone × how much of it one serial RunAll
	// did. What the model does not explain is the residual.
	var explained float64
	for _, layer := range []string{"simnet", "workload", "eventq", "asic", "poller", "analysis"} {
		explained += model[layer]
		out.notef("campaign ledger: %-9s %.3f s of %.3f s serial (%.1f%%)", layer, model[layer], serial.wall, 100*model[layer]/serial.wall)
	}
	m["harness.residual_frac"] = 1 - explained/serial.wall
	return out, nil
}

// campaignDrives runs each simulation layer alone on campaign-shaped
// cells (one per application class, averaged) and returns the modeled
// seconds each layer accounts for in one serial RunAll.
func campaignDrives(e *env, c *campaign, serial campaignRound, m map[string]float64) (map[string]float64, error) {
	const schedEvents = 1 << 20
	evNs, _, _ := timed(func() error { runScheduler(schedEvents, 64); return nil })
	evNs /= schedEvents
	m["eventq.ns_per_event"] = evNs

	cells := newSimCells(e.seed, c)
	n := float64(len(cells))
	simMs := cells[0].simMs
	ticks := int(simMs * 200) // 5 µs ticks
	var netNs, netAllocs, workloadNs, eventqNs, swNs, swAllocs, events, flows float64
	for _, cell := range cells {
		var net, gen simStats
		ns, allocs, err := timed(func() (err error) { net, err = cell.runNet(); return })
		if err != nil {
			return nil, err
		}
		genNs, _, err := timed(func() (err error) { gen, err = cell.runGenerator(); return })
		if err != nil {
			return nil, err
		}
		tickNs, tickAllocs, _ := timed(func() error { cell.runSwitch(ticks); return nil })
		netNs += ns / n
		netAllocs += allocs / n
		workloadNs += (genNs - float64(gen.events)*evNs) / n
		eventqNs += float64(net.events) * evNs / n
		swNs += tickNs / n
		swAllocs += tickAllocs / n
		events += float64(net.events) / n
		flows += float64(net.flows) / n
	}
	var poll simStats
	pollNs, pollAllocs, err := timed(func() (err error) {
		poll, err = cells[0].runPoller(func(Sample) {})
		return
	})
	if err != nil {
		return nil, err
	}
	base, err := simulateBase(e.ctx, e.seed, 1, baseSingleByte, baseDurMs)
	if err != nil {
		return nil, err
	}
	anNs, anAllocs, _ := timed(func() error {
		feed := newAnalysisFeed(portSpeed(base[0][0].Port))
		for i := range base[0] {
			feed.feed(base[0][i])
		}
		return nil
	})

	// The poller's own timer is the only event on its scheduler, so its
	// heap work is trivial and stays inside the poller's number.
	pollerNs := pollNs
	simnetSelfNs := netNs - workloadNs - eventqNs - swNs
	m["eventq.events"] = events
	m["workload.ns_per_sim_ms"] = workloadNs / simMs
	m["workload.flows_started"] = flows
	m["asic.ns_per_tick"] = swNs / float64(ticks)
	m["asic.allocs_per_tick"] = swAllocs / float64(ticks)
	m["simnet.ns_per_sim_ms"] = netNs / simMs
	m["simnet.allocs_per_sim_ms"] = netAllocs / simMs
	m["simnet.self_frac"] = simnetSelfNs / netNs
	m["poller.ns_per_sample"] = pollerNs / float64(poll.samples)
	m["poller.allocs_per_sample"] = pollAllocs / float64(poll.samples)
	m["poller.missed_frac"] = float64(poll.missed) / float64(poll.samples+poll.missed)
	m["analysis.ns_per_sample"] = anNs / float64(len(base[0]))
	m["analysis.allocs_per_sample"] = anAllocs / float64(len(base[0]))

	// One serial RunAll simulates every cell for warm-up + window.
	windows := serial.cells * (simMs + cells[0].warmupMs) / simMs
	return map[string]float64{
		"workload": workloadNs * 1e-9 * windows,
		"eventq":   eventqNs * 1e-9 * windows,
		"asic":     swNs * 1e-9 * windows,
		"simnet":   simnetSelfNs * 1e-9 * windows,
		"poller":   m["poller.ns_per_sample"] * 1e-9 * serial.samples,
		"analysis": m["analysis.ns_per_sample"] * 1e-9 * serial.samples,
	}, nil
}
