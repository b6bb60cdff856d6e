//go:build !race

package ffs

const raceEnabled = false
