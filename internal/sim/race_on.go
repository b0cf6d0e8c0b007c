//go:build race

package sim

// RaceDetector reports whether this binary was built with the Go
// race detector. Simulated kernels are allowed to contain benign
// application-level races (e.g. BFS frontier relaxation writes the same
// level value from several lanes), so under the detector ForWorkers
// runs a device's worker lanes sequentially; the runtime's own
// cross-device concurrency stays fully checked. Race builds also run
// the checks too slow for every build: the free list's poison check and
// the runtime's check that an array it takes for zeros holds them.
const RaceDetector = true
