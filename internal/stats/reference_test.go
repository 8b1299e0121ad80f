package stats

// Reference implementations: the bodies of the slice-taking Markov fit
// and of MergeMarkov before they became feed loops over MarkovAcc, moved
// here verbatim so TestMarkovAccMatchesFitMerge compares two independent
// computations.

import "math"

func refFitMarkov(seq []bool) MarkovModel {
	var m MarkovModel
	if len(seq) < 2 {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				m.P[a][b] = math.NaN()
			}
		}
		return m
	}
	for i := 1; i < len(seq); i++ {
		a, b := boolToState(seq[i-1]), boolToState(seq[i])
		m.Counts[a][b]++
		m.N++
	}
	for a := 0; a < 2; a++ {
		rowTotal := m.Counts[a][0] + m.Counts[a][1]
		for b := 0; b < 2; b++ {
			if rowTotal == 0 {
				m.P[a][b] = math.NaN()
			} else {
				m.P[a][b] = float64(m.Counts[a][b]) / float64(rowTotal)
			}
		}
	}
	return m
}

func refMergeMarkov(models ...MarkovModel) MarkovModel {
	var m MarkovModel
	for _, src := range models {
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				m.Counts[a][b] += src.Counts[a][b]
			}
		}
		m.N += src.N
	}
	for a := 0; a < 2; a++ {
		rowTotal := m.Counts[a][0] + m.Counts[a][1]
		for b := 0; b < 2; b++ {
			if rowTotal == 0 {
				m.P[a][b] = math.NaN()
			} else {
				m.P[a][b] = float64(m.Counts[a][b]) / float64(rowTotal)
			}
		}
	}
	return m
}
