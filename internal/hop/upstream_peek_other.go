//go:build !unix

package hop

// fdQuiet has no portable form here, so every pooled connection passes the
// peek: one the backend closed is found by its write or its read failing,
// and that failure goes to the caller's retry rule like any other.
func fdQuiet(uintptr) bool { return true }
