//go:build race

package storage

// raceEnabled gates tests whose device is too large for the race
// detector's shadow memory.
const raceEnabled = true
