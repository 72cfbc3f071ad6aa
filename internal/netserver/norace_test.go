//go:build !race

package netserver

const raceEnabled = false
