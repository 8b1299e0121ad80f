package core

import (
	"context"
	"strings"
)

// Report bundles every reproduced table and figure.
type Report struct {
	Fig1   Fig1Result
	Fig2   Fig2Result
	Table1 Table1Result
	Fig3   Fig3Result
	Fig4   Fig4Result
	Table2 Table2Result
	Fig5   Fig5Result
	Fig6   Fig6Result
	Fig7   Fig7Result
	Fig8   Fig8Result
	Fig9   Fig9Result
	Fig10  Fig10Result
	// Implications is the §7 quantification (extension; not a paper
	// figure, but derived from the same campaigns).
	Implications ImplicationsResult
}

// RunAll produces the full report. Every figure's cells go to the pool in
// one Run, so cells that share a rack-window poll one simulated rack, as
// the paper's analyses all read the same production racks. The
// single-counter byte campaign is simulated once per app with every
// statistic enabled; Figs 3, 4, 6, Table 2 and §7 all reduce that one
// data set, mirroring the paper's campaign reuse.
func (e *Experiment) RunAll(ctx context.Context) (*Report, error) {
	campaigns, jobs := e.byteCampaignJobs(ByteWant{Durations: true, Gaps: true, Utils: true, Markov: true})
	var r Report
	jobs = append(jobs,
		e.fig1Job(&r.Fig1),
		e.fig2Job(&r.Fig2),
		e.table1Job(&r.Table1),
		e.fig5Job(&r.Fig5),
		e.fig7Job(&r.Fig7),
		e.fig8Job(&r.Fig8),
		e.fig9Job(&r.Fig9),
		e.fig10Job(&r.Fig10),
	)
	if err := e.Runner().runJobs(ctx, jobs...); err != nil {
		return nil, err
	}
	r.setByteFigures(campaigns)
	r.Implications = implications(campaigns)
	return &r, nil
}

// Format renders the whole report in paper order.
func (r *Report) Format() string {
	sections := []string{
		r.Fig1.Format(),
		r.Fig2.Format(),
		r.Table1.Format(),
		r.Fig3.Format(),
		r.Table2.Format(),
		r.Fig4.Format(),
		r.Fig5.Format(),
		r.Fig6.Format(),
		r.Fig7.Format(),
		r.Fig8.Format(),
		r.Fig9.Format(),
		r.Fig10.Format(),
		r.Implications.Format(),
	}
	return strings.Join(sections, "\n\n")
}
