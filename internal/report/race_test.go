//go:build race

package report

// raceEnabled reports a -race build, whose sync.Pool drops a share of its
// Puts on purpose, so allocation counts there say nothing about reuse.
const raceEnabled = true
