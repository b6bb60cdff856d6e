//go:build race

package dedup

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is Put, so a pooled Get may allocate at any time and allocation
// counts on pooled paths cannot be asserted.
const raceEnabled = true
