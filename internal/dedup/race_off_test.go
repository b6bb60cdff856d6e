//go:build !race

package dedup

const raceEnabled = false
