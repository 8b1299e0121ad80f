// Package plot renders the paper's figure types as terminal graphics:
// CDF step plots (Figs 3, 4, 6, 7), correlation heatmaps (Fig 8), grouped
// boxplots (Fig 10), bar charts (Figs 5, 9) and sparkline time series
// (Fig 2). The output is plain UTF-8 text so every figure can be eyeballed
// straight from mbreport/mbanalyze without a plotting stack.
//
// All renderers are pure: data in, string out. Sizes are in character
// cells: a CDF plot is a fixed 64×16, and the boxplot and bar widths are
// the caller's.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mburst/internal/stats"
)

// Series is one named curve on a CDF plot.
type Series struct {
	Name string
	ECDF *stats.ECDF
}

// CDFConfig controls CDF rendering.
type CDFConfig struct {
	// LogX plots the x axis on a log10 scale (natural for Figs 3 and 4,
	// whose x ranges span orders of magnitude).
	LogX bool
	// XLabel annotates the x axis.
	XLabel string
}

// cdfWidth and cdfHeight are a CDF plot area's dimensions in cells: 64
// columns fit an 80-column terminal beside the y-axis ticks, and 16 rows
// resolve the CDF in steps of 1/15.
const cdfWidth, cdfHeight = 64, 16

// seriesMarks assigns each curve a distinct mark.
var seriesMarks = []byte{'*', 'o', '+', 'x', '#', '@'}

// CDF renders one or more empirical CDFs on shared axes. Curves with no
// data are listed but not drawn.
func CDF(cfg CDFConfig, series ...Series) string {
	// Establish the x range across all series.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		if s.ECDF == nil || s.ECDF.N() == 0 {
			continue
		}
		if v := s.ECDF.Min(); v < lo {
			lo = v
		}
		if v := s.ECDF.Max(); v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return "(no data)\n"
	}
	if cfg.LogX {
		if lo <= 0 {
			lo = math.Nextafter(0, 1)
			// Find the smallest positive value to anchor the log axis.
			small := math.Inf(1)
			for _, s := range series {
				if s.ECDF == nil {
					continue
				}
				for _, v := range s.ECDF.Values() {
					if v > 0 && v < small {
						small = v
					}
				}
			}
			if !math.IsInf(small, 1) {
				lo = small
			}
		}
		if hi <= lo {
			hi = lo * 10
		}
	} else if hi <= lo {
		hi = lo + 1
	}

	xOf := func(col int) float64 {
		f := float64(col) / float64(cdfWidth-1)
		if cfg.LogX {
			return lo * math.Pow(hi/lo, f)
		}
		return lo + f*(hi-lo)
	}

	grid := make([][]byte, cdfHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cdfWidth))
	}
	for si, s := range series {
		if s.ECDF == nil || s.ECDF.N() == 0 {
			continue
		}
		mark := seriesMarks[si%len(seriesMarks)]
		for col := 0; col < cdfWidth; col++ {
			p := s.ECDF.At(xOf(col))
			row := int((1 - p) * float64(cdfHeight-1))
			if row < 0 {
				row = 0
			}
			if row >= cdfHeight {
				row = cdfHeight - 1
			}
			grid[row][col] = mark
		}
	}

	var b strings.Builder
	for r, line := range grid {
		yTick := "      "
		switch r {
		case 0:
			yTick = "1.00 |"
		case cdfHeight / 2:
			yTick = "0.50 |"
		case cdfHeight - 1:
			yTick = "0.00 |"
		default:
			yTick = "     |"
		}
		b.WriteString(yTick)
		b.Write(line)
		b.WriteByte('\n')
	}
	b.WriteString("     +" + strings.Repeat("-", cdfWidth) + "\n")
	axis := fmt.Sprintf("      %-12s", formatTick(lo))
	mid := formatTick(xOf(cdfWidth / 2))
	right := formatTick(hi)
	pad := cdfWidth - 12 - len(mid) - len(right)
	if pad < 1 {
		pad = 1
	}
	axis += mid + strings.Repeat(" ", pad) + right
	b.WriteString(axis + "\n")
	if cfg.XLabel != "" {
		scale := ""
		if cfg.LogX {
			scale = " (log scale)"
		}
		fmt.Fprintf(&b, "      x: %s%s\n", cfg.XLabel, scale)
	}
	for si, s := range series {
		n := 0
		if s.ECDF != nil {
			n = s.ECDF.N()
		}
		fmt.Fprintf(&b, "      %c %s (n=%d)\n", seriesMarks[si%len(seriesMarks)], s.Name, n)
	}
	return b.String()
}

func formatTick(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 10000 || math.Abs(v) < 0.01:
		return fmt.Sprintf("%.1e", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2g", v)
	}
}

// Heatmap renders a square matrix of values in [-1, 1] (Fig 8) with a
// character ramp over |value|; NaN cells print '?'.
func Heatmap(matrix [][]float64) string {
	ramp := []byte(" .:-=+*#%@")
	var b strings.Builder
	b.WriteString("    ")
	for j := range matrix {
		fmt.Fprintf(&b, "%2d", j%10)
	}
	b.WriteByte('\n')
	for i, row := range matrix {
		fmt.Fprintf(&b, "%3d ", i)
		for _, v := range row {
			switch {
			case math.IsNaN(v):
				b.WriteString(" ?")
			default:
				a := math.Abs(v)
				if a > 1 {
					a = 1
				}
				idx := int(a * float64(len(ramp)-1))
				b.WriteByte(' ')
				b.WriteByte(ramp[idx])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Boxplots renders grouped boxplot summaries (Fig 10) keyed by an integer
// group (e.g. hot-port count), one row per group, values assumed in [0,1].
func Boxplots(groups map[int]stats.BoxplotSummary, width int) string {
	if width <= 0 {
		width = 50
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	b.WriteString("group  n    |" + strings.Repeat(" ", width) + "|\n")
	for _, k := range keys {
		s := groups[k]
		line := []byte(strings.Repeat(" ", width))
		cell := func(v float64) int {
			c := int(v * float64(width-1))
			if c < 0 {
				c = 0
			}
			if c >= width {
				c = width - 1
			}
			return c
		}
		if s.N > 0 && !math.IsNaN(s.Median) {
			for c := cell(s.WhiskerLow); c <= cell(s.WhiskerHigh); c++ {
				line[c] = '-'
			}
			for c := cell(s.Q1); c <= cell(s.Q3); c++ {
				line[c] = '='
			}
			line[cell(s.Median)] = '|'
		}
		fmt.Fprintf(&b, "%5d %4d |%s|\n", k, s.N, line)
	}
	b.WriteString("            0" + strings.Repeat(" ", width-2) + "1\n")
	return b.String()
}

// Bars renders a labeled horizontal bar chart of fractions in [0,1]
// (Figs 5 and 9).
func Bars(labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 40
	}
	labelW := 0
	for _, l := range labels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	n := len(labels)
	if len(values) < n {
		n = len(values)
	}
	for i := 0; i < n; i++ {
		v := values[i]
		if math.IsNaN(v) || v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		fill := int(v*float64(width) + 0.5)
		fmt.Fprintf(&b, "%-*s %6.1f%% %s\n", labelW, labels[i], values[i]*100, strings.Repeat("█", fill))
	}
	return b.String()
}

// Sparkline renders a compact time series (Fig 2's drop bins) with eight
// vertical levels; zero values print as '·' so the "mostly empty bins"
// pattern is visible at a glance.
func Sparkline(values []uint64) string {
	levels := []rune("▁▂▃▄▅▆▇█")
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		if v == 0 {
			b.WriteRune('·')
			continue
		}
		idx := int(float64(v) / float64(max) * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}
