package vliw

// SampleGroup and NopGroup expose the hand-built groups of the encoding
// tests to the external test package, whose decoder fuzzer also seeds from
// translated code (it imports core, which imports this package).
var (
	SampleGroup = sampleGroup
	NopGroup    = nopGroup
)
