//go:build race

package netserver

// raceEnabled reports a -race build, whose detector and sync.Pool (it drops
// a share of what is put back) change what a road allocates.
const raceEnabled = true
