//go:build !race

package mburst

const raceEnabled = false
