//go:build !race

package mem

// raceEnabled reports a -race build: its instrumented runtime allocates on
// paths that allocate nothing in a production build.
const raceEnabled = false
