package nondet

// InCore exposes the package-scoping predicate for tests.
var InCore = inCore
