//go:build race

package rt_test

// raceBuild reports whether the tests run under the race detector.
const raceBuild = true
