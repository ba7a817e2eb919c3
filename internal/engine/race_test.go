//go:build race

package engine

// Under the race detector sync.Pool drops a random share of its Puts,
// so a pass's scratch is sometimes allocated afresh.
func init() { raceEnabled = true }
