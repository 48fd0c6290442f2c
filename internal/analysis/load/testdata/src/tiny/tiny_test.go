package tiny

// This file does not type-check: the loader parses test files but never
// type-checks them, so loading the package still succeeds.
var notAnInt int = "text"
