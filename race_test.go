//go:build race

package mburst

// raceEnabled: under the race detector TestExperiments skips its campaign.
const raceEnabled = true
