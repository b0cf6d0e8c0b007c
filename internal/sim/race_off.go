//go:build !race

package sim

// RaceDetector is false in normal builds; see race_on.go.
const RaceDetector = false
