// Package b calls into package a from a non-test file.
package b

import "deadfix/internal/a"

// Call is live: the command calls it.
func Call() { a.UsedByB() }
