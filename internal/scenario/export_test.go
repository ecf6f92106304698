package scenario

// Parse exposes the strict spec decoder to the external tests.
var Parse = parse
