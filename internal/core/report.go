package core

import (
	"context"
	"fmt"
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

// RunAll produces the full report. The single-counter byte campaign is
// simulated once per app with every statistic enabled; Figs 3, 4, 6,
// Table 2 and §7 all reduce that one data set, mirroring the paper's
// campaign reuse.
func (e *Experiment) RunAll(ctx context.Context) (*Report, error) {
	campaigns, err := e.byteCampaigns(ctx, ByteWant{Durations: true, Gaps: true, Utils: true, Markov: true})
	if err != nil {
		return nil, err
	}
	r := byteFigures(campaigns)
	r.Implications = implications(campaigns)

	if r.Fig1, err = e.Fig1DropUtilScatter(ctx); err != nil {
		return nil, fmt.Errorf("fig1: %w", err)
	}
	if r.Fig2, err = e.Fig2DropTimeSeries(ctx); err != nil {
		return nil, fmt.Errorf("fig2: %w", err)
	}
	if r.Table1, err = e.Table1SamplingLoss(ctx); err != nil {
		return nil, fmt.Errorf("table1: %w", err)
	}
	if r.Fig5, err = e.Fig5PacketSizes(ctx); err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	if r.Fig7, err = e.Fig7UplinkMAD(ctx); err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	if r.Fig8, err = e.Fig8ServerCorrelation(ctx); err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	if r.Fig9, err = e.Fig9HotPortShare(ctx); err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	if r.Fig10, err = e.Fig10BufferOccupancy(ctx); err != nil {
		return nil, fmt.Errorf("fig10: %w", err)
	}
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
