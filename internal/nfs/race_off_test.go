//go:build !race

package nfs

const raceEnabled = false
