package sgp4

// MatchesReference exposes matchesReference to the external test
// package, which builds full constellations (their builder imports
// this package, so an internal test cannot).
var MatchesReference = matchesReference
