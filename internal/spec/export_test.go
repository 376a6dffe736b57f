package spec

// What fuzz_external_test.go needs from the in-package test helpers.
var (
	CheckParse        = checkParse
	DifferentialSeeds = differentialSeeds
)
