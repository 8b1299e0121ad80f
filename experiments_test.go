package mburst

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mburst/internal/analysis"
	"mburst/internal/asic"
	"mburst/internal/core"
	"mburst/internal/workload"
)

// EXPERIMENTS.md's summary and §7 tables are the reproduction's result;
// these tests hold them to the code. TestExperimentsQuick (every go test,
// race detector included) matches rows to report sections and ✅s to
// claims, and runs the claims marked quick on a QuickConfig report.
// TestExperiments runs the full-scale report the doc quotes (seed 1,
// about 7 s on two vCPUs): every number of a row's "Measured" cell must
// be printed in that row's report section, and every claim must hold.

// claim is one shape of a ✅ row's "Paper claim" cell as a predicate over
// the report; quick marks one that also holds at QuickConfig scale.
type claim struct {
	artifact, name string // artifact is the row: "Fig 3", "Load balancing"
	quick          bool
	holds          func(*core.Report) error
}

var web, cache, hadoop = workload.Web, workload.Cache, workload.Hadoop

var claims = []claim{
	{"Fig 1", "drops are only weakly correlated with utilization", true, func(r *core.Report) error {
		drops := 0
		for _, p := range r.Fig1.Points {
			if p.DropRate > 0 {
				drops++
			}
		}
		if drops == 0 || !(math.Abs(r.Fig1.Correlation) < 0.5) {
			return fmt.Errorf("%d port-windows with drops, r = %.3f; want some, and |r| < 0.5", drops, r.Fig1.Correlation)
		}
		return nil
	}},
	{"Fig 2", "the high-util port's drops come in bursts", true, func(r *core.Report) error { return burstyDrops(r.Fig2.HighStats) }},
	{"Fig 2", "the low-util port's drops come in bursts", false, func(r *core.Report) error { return burstyDrops(r.Fig2.LowStats) }},
	{"Fig 2", "the low-util port is the less utilized", true, func(r *core.Report) error {
		if !(r.Fig2.LowAvg < r.Fig2.HighAvg) {
			return fmt.Errorf("low-util port averages %.3f, high-util port %.3f", r.Fig2.LowAvg, r.Fig2.HighAvg)
		}
		return nil
	}},
	{"Table 1", "1 µs misses ≥ 80% of intervals, 10 µs 3–25%, 25 µs ≤ 5%, and loss falls as the interval grows", true, func(r *core.Report) error {
		rows := r.Table1.Rows // 1, 10, 25, 50, 100 µs
		for i, b := range [][2]float64{{0.8, 1}, {0.03, 0.25}, {0, 0.05}, {0, 1}, {0, 1}} {
			if len(rows) != 5 || !(rows[i].MissRate >= b[0] && rows[i].MissRate <= b[1]) || i > 0 && rows[i].MissRate > rows[i-1].MissRate {
				return fmt.Errorf("miss rates %v", rows)
			}
		}
		return nil
	}},
	// To the whole µs the report prints: hadoop's full-scale p90 is 200.1 µs,
	// eight 25 µs periods plus poll jitter.
	{"Fig 3", "p90 ≤ 200 µs for every app", true, every(func(r *core.Report, a workload.App) float64 { return math.Round(burstQ(0.9)(r, a)) }, "≤", 200)},
	{"Fig 3", "web's p90 is the lowest", false, bottom(burstQ(0.9), web)},
	{"Fig 3", "web's bursts are shorter than hadoop's at p50 and p90", true, all(ordered(burstQ(0.5), hadoop, web), ordered(burstQ(0.9), hadoop, web))},
	{"Fig 3", "hadoop has the longest tail (p99)", true, top(burstQ(0.99), hadoop)},
	{"Table 2", "every likelihood ratio is ≫ 1 (> 5)", true, every(ratio, ">", 5)},
	{"Table 2", "ratios are ordered web > cache > hadoop", true, ordered(ratio, web, cache, hadoop)},
	{"Table 2", "stationary hot share is ordered hadoop > cache > web", true, ordered(func(r *core.Report, a workload.App) float64 { return r.Table2.Models[a].StationaryHotFraction() }, hadoop, cache, web)},
	{"Fig 4", "Poisson is rejected (KS p < 0.001, ≥ 100 gaps) for every app", false, all(every(gapCount, "≥", 100), every(func(r *core.Report, a workload.App) float64 { return r.Fig4.KS[a].PValue }, "<", 0.001))},
	{"Fig 4", "the gap tail reaches far beyond bursts: p99 gap ≥ 10 × p90 burst, ≥ 10 gaps", true, all(every(gapCount, "≥", 10), every(func(r *core.Report, a workload.App) float64 { return r.Fig4.Gaps[a].Quantile(0.99) / burstQ(0.9)(r, a) }, "≥", 10))},
	{"Fig 5", "large packets' share rises inside bursts for every app", true, every(largeShift, ">", 0)},
	{"Fig 5", "the rise is ordered web > cache > hadoop", true, ordered(largeShift, web, cache, hadoop)},
	{"Fig 5", "hadoop's MTU bin holds ≥ ½ inside and outside bursts", true, every(func(r *core.Report, a workload.App) float64 {
		return min(r.Fig5.Mix[a].Inside.Normalized()[asic.NumSizeBins-1], r.Fig5.Mix[a].Outside.Normalized()[asic.NumSizeBins-1])
	}, "≥", 0.5, hadoop)},
	{"Fig 6", "hot time is ordered hadoop > cache > web", true, ordered(func(r *core.Report, a workload.App) float64 { return r.Fig6.HotFrac[a] }, hadoop, cache, web)},
	{"Fig 6", "utilization is long-tailed: p99 ≥ 2 × p50", true, every(func(r *core.Report, a workload.App) float64 {
		return r.Fig6.Utils[a].Quantile(0.99) / r.Fig6.Utils[a].Quantile(0.5)
	}, "≥", 2)},
	{"Fig 6", "hadoop spends ≥ 1% of samples at ≥ 95% utilization", true, every(func(r *core.Report, a workload.App) float64 { return 1 - r.Fig6.Utils[a].At(0.95) }, "≥", 0.01, hadoop)},
	{"Fig 7", "uplinks are imbalanced at 40 µs: egress MAD p50 > 20%", true, every(madQ(0.5), ">", 0.2)},
	{"Fig 7", "hadoop is the least balanced at 40 µs (p50 and p90)", true, all(top(madQ(0.5), hadoop), top(madQ(0.9), hadoop))},
	{"Fig 7", "coarse bins balance the uplinks: egress MAD p50 falls", true, every(func(r *core.Report, a workload.App) float64 {
		return r.Fig7.MAD[a].EgressCoarse.Quantile(0.5) / madQ(0.5)(r, a)
	}, "<", 1)},
	{"Fig 7", "ingress ≈ egress: 40 µs MAD p50s within 5 points", false, every(func(r *core.Report, a workload.App) float64 {
		return math.Abs(r.Fig7.MAD[a].IngressFine.Quantile(0.5) - madQ(0.5)(r, a))
	}, "≤", 0.05)},
	{"Fig 8", "cache's servers form correlated groups: block score > 0.2", true, every(func(r *core.Report, a workload.App) float64 { return r.Fig8.BlockScore[a] }, ">", 0.2, cache)},
	{"Fig 8", "every app has a heatmap; cache's mean |r| is the highest, web's < 0.1", true, all(every(func(r *core.Report, a workload.App) float64 { return float64(len(r.Fig8.Corr[a])) }, "≥", 2), top(meanR, cache), every(meanR, "<", 0.1, web))},
	{"Fig 9", "cache's uplink share is above ½", true, every(uplinkShare, ">", 0.5, cache)},
	{"Fig 9", "web's and hadoop's uplink shares are below ½", true, every(uplinkShare, "<", 0.5, web, hadoop)},
	{"Fig 9", "web's uplink share is no higher than hadoop's", true, every(func(r *core.Report, a workload.App) float64 { return uplinkShare(r, a) - uplinkShare(r, hadoop) }, "≤", 0, web)},
	{"Fig 10", "hadoop's buffer peak grows with hot ports", true, every(peakGrowth, ">", 0, hadoop)},
	{"Fig 10", "every app's buffer peak grows with hot ports", false, every(peakGrowth, ">", 0)},
	{"Fig 10", "hadoop drives the most ports hot at once", true, top(maxHot, hadoop)},
	{"Fig 10", "hadoop drives every port hot at once", false, every(maxHot, "≥", 1, hadoop)},
	{"Fig 10", "hadoop's many-hot peak is the highest", true, top(func(r *core.Report, a workload.App) float64 { return r.Fig10.MeanPeakHigh[a] }, hadoop)},
	{"Congestion control", "a slower signal misses more bursts", true, every(func(r *core.Report, a workload.App) float64 {
		f := r.Implications.OverBeforeSignal[a]
		return min(f[1]-f[0], f[2]-f[1])
	}, "≥", 0)},
	{"Congestion control", "at a 250 µs RTT most bursts end before the signal", true, every(func(r *core.Report, a workload.App) float64 { return r.Implications.OverBeforeSignal[a][2] }, ">", 0.5)},
	{"Load balancing", "most gaps exceed one-way latency", true, every(func(r *core.Report, a workload.App) float64 { return r.Implications.RepathableGaps[a] }, ">", 0.5)},
	{"Online detection (web)", "the threshold detector catches ≥ 90% of bursts", true, every(func(r *core.Report, a workload.App) float64 { return r.Implications.ThresholdEval.DetectionRate() }, "≥", 0.9, web)},
	{"Online detection (web)", "EWMA smoothing detects under half", true, every(func(r *core.Report, a workload.App) float64 { return r.Implications.EWMAEval.DetectionRate() }, "<", 0.5, web)},
}

// metric reads one number per app off a report. A statistic of no sample
// reads NaN, which passes no check.
type metric func(r *core.Report, app workload.App) float64

func ratio(r *core.Report, a workload.App) float64  { return r.Table2.Models[a].LikelihoodRatio() }
func meanR(r *core.Report, a workload.App) float64  { return r.Fig8.MeanOffDiag[a] }
func maxHot(r *core.Report, a workload.App) float64 { return r.Fig10.MaxHotFrac[a] }
func peakGrowth(r *core.Report, a workload.App) float64 {
	return r.Fig10.MeanPeakHigh[a] - r.Fig10.MeanPeakLow[a]
}

func gapCount(r *core.Report, a workload.App) float64   { return float64(r.Fig4.Gaps[a].N()) }
func largeShift(r *core.Report, a workload.App) float64 { return r.Fig5.Mix[a].LargeShift() }

// uplinkShare is 0/0, NaN, for an app with no hot sample.
func uplinkShare(r *core.Report, a workload.App) float64 {
	s := r.Fig9.Share[a]
	return float64(s.UplinkHot) / float64(s.UplinkHot+s.DownlinkHot)
}

func burstQ(p float64) metric {
	return func(r *core.Report, a workload.App) float64 { return r.Fig3.Durations[a].Quantile(p) }
}

func madQ(p float64) metric {
	return func(r *core.Report, a workload.App) float64 { return r.Fig7.MAD[a].EgressFine.Quantile(p) }
}

// every requires "m op x" for each of apps, or every app when none is
// named.
func every(m metric, op string, x float64, apps ...workload.App) func(*core.Report) error {
	if len(apps) == 0 {
		apps = workload.Apps[:]
	}
	return func(r *core.Report) error {
		for _, a := range apps {
			if v := m(r, a); !map[string]bool{"<": v < x, "≤": v <= x, ">": v > x, "≥": v >= x}[op] {
				return fmt.Errorf("%v reads %.4g, want %s %g", a, v, op, x)
			}
		}
		return nil
	}
}

// ordered requires m(apps[0]) > m(apps[1]) > ….
func ordered(m metric, apps ...workload.App) func(*core.Report) error {
	return func(r *core.Report) error {
		for i := 1; i < len(apps); i++ {
			if hi, lo := m(r, apps[i-1]), m(r, apps[i]); !(hi > lo) {
				return fmt.Errorf("%v reads %.4g, not above %v's %.4g", apps[i-1], hi, apps[i], lo)
			}
		}
		return nil
	}
}

// top requires app's m above every other app's; bottom, below.
func top(m metric, app workload.App) func(*core.Report) error    { return rank(m, app, true) }
func bottom(m metric, app workload.App) func(*core.Report) error { return rank(m, app, false) }

func rank(m metric, app workload.App, high bool) func(*core.Report) error {
	var checks []func(*core.Report) error
	for _, other := range workload.Apps {
		pair := []workload.App{other, app}
		if high {
			pair = []workload.App{app, other}
		}
		if other != app {
			checks = append(checks, ordered(m, pair...))
		}
	}
	return all(checks...)
}

// all requires every check, reporting the first that fails.
func all(checks ...func(*core.Report) error) func(*core.Report) error {
	return func(r *core.Report) error {
		for _, c := range checks {
			if err := c(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func burstyDrops(b analysis.Burstiness) error {
	if b.Total == 0 || !(b.ZeroBins >= 0.9) {
		return fmt.Errorf("%d drops, %.0f%% of bins empty; want drops, in ≥ 90%% empty bins", b.Total, b.ZeroBins*100)
	}
	return nil
}

func TestExperimentsQuick(t *testing.T) {
	rep, err := quickReport()
	if err != nil {
		t.Fatal(err)
	}
	rows, sections := experimentRows(t), reportSections(rep.Format())
	named := map[string]bool{}
	for _, r := range rows {
		key := strings.ToLower(r.artifact)
		tests := citedTests.FindAllStringSubmatch(r.measured, -1)
		switch _, inReport := sections[key]; {
		case !inReport && len(tests) == 0:
			t.Errorf("EXPERIMENTS.md row %q names no section of the report and cites no test", r.artifact)
		case !inReport:
			for _, m := range tests {
				if !testExists(m[1]) {
					t.Errorf("EXPERIMENTS.md row %q cites %s, which no test file declares", r.artifact, m[1])
				}
			}
		case strings.Contains(r.verdict, "✅") && len(claimsFor(r.artifact, false)) == 0:
			t.Errorf("EXPERIMENTS.md row %q is ✅ but no claim checks it", r.artifact)
		}
		named[key] = true
	}
	for title := range sections {
		if !named[title] {
			t.Errorf("the report's %q section has no EXPERIMENTS.md row", title)
		}
	}
	for _, c := range claims {
		if !named[strings.ToLower(c.artifact)] {
			t.Errorf("claim %q names %q, which is no EXPERIMENTS.md row", c.name, c.artifact)
		}
	}
	checkClaims(t, rows, rep, true)
}

func TestExperiments(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the full-scale campaign: ~7 s, minutes under the race detector (scripts/ci.sh runs it without)")
	}
	exp, err := core.NewExperiment(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, sections := experimentRows(t), reportSections(rep.Format())
	for _, r := range rows {
		sec := sections[strings.ToLower(r.artifact)]
		printed := set(numbers(sec))
		var missing []string
		for _, n := range numbers(backticked.ReplaceAllString(r.measured, "")) {
			if !printed[n] {
				missing = append(missing, n)
			}
		}
		if sec != "" && len(missing) > 0 {
			t.Errorf("EXPERIMENTS.md row %q quotes %s, which its report section does not print:\n%s", r.artifact, strings.Join(missing, ", "), sec)
		}
	}
	checkClaims(t, rows, rep, false)
}

// checkClaims runs each row's claims — only those marked quick when
// quickOnly — in one subtest per row.
func checkClaims(t *testing.T, rows []expRow, rep *core.Report, quickOnly bool) {
	for _, r := range rows {
		if run := claimsFor(r.artifact, quickOnly); len(run) > 0 {
			t.Run(r.artifact, func(t *testing.T) {
				for _, c := range run {
					if err := c.holds(rep); err != nil {
						t.Errorf("%s: %v", c.name, err)
					}
				}
			})
		}
	}
}

func claimsFor(artifact string, quickOnly bool) []claim {
	var out []claim
	for _, c := range claims {
		if strings.EqualFold(c.artifact, artifact) && (c.quick || !quickOnly) {
			out = append(out, c)
		}
	}
	return out
}

// quickReport is one QuickConfig report, shared by the root tests.
var quickReport = sync.OnceValues(func() (*core.Report, error) {
	exp, err := core.NewExperiment(core.QuickConfig())
	if err != nil {
		return nil, err
	}
	return exp.RunAll(context.Background())
})

// expRow is one row of EXPERIMENTS.md's summary or §7 table, whose last
// two columns are "Measured" and "Verdict". Its artifact is the first
// cell's bold text, or that cell up to its first colon.
type expRow struct{ artifact, measured, verdict string }

var bold = regexp.MustCompile(`\*\*([^*]+)\*\*`)

func experimentRows(t *testing.T) []expRow {
	var rows []expRow
	for _, header := range []string{"| Artifact | Paper claim (shape) | Measured | Verdict |", "| Implication | Measured | Verdict |"} {
		for _, cells := range markdownTable(t, "EXPERIMENTS.md", header) {
			name, _, _ := strings.Cut(cells[0], ":")
			if m := bold.FindStringSubmatch(cells[0]); m != nil {
				name = m[1]
			}
			rows = append(rows, expRow{strings.TrimSpace(name), cells[len(cells)-2], cells[len(cells)-1]})
		}
	}
	return rows
}

// reportSections splits Report.Format by artifact, keyed lower-case: each
// figure or table by its first line up to the colon ("fig 3"), and each
// §7 implication by its line indented two spaces ("load balancing").
func reportSections(out string) map[string]string {
	sections := map[string]string{}
	for _, sec := range strings.Split(out, "\n\n") {
		head, rest, _ := strings.Cut(sec, "\n")
		if !strings.HasPrefix(head, "§7") {
			title, _, _ := strings.Cut(head, ":")
			sections[strings.ToLower(title)] = sec
			continue
		}
		var title string
		for _, line := range strings.Split(rest, "\n") {
			if !strings.HasPrefix(line, "   ") {
				title, _, _ = strings.Cut(strings.ToLower(strings.TrimSpace(line)), ":")
			}
			sections[title] += line + "\n"
		}
	}
	return sections
}

// number matches a number as the report prints it ("88.45", "1.2e-58"),
// but not the digits of a word ("p90").
var number = regexp.MustCompile(`(?:^|[^\w.])(\d+(?:\.\d+)?(?:e[-+]?\d+)?)`)

func numbers(s string) []string {
	var out []string
	for _, m := range number.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

var citedTests = regexp.MustCompile("`(Test\\w+)`")

// testExists reports whether a test file of the module declares name.
func testExists(name string) bool {
	for _, glob := range []string{"*_test.go", "*/*_test.go", "*/*/*_test.go"} {
		files, _ := filepath.Glob(glob)
		for _, f := range files {
			if data, _ := os.ReadFile(f); strings.Contains(string(data), "\nfunc "+name+"(") {
				return true
			}
		}
	}
	return false
}
