//go:build !race

package clustermgr

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
