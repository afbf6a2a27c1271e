package core

// CheckKGapFilter exposes checkKGapFilter to the external tests, which
// build their inputs from packages that import core.
var CheckKGapFilter = checkKGapFilter
