//go:build unix

package cluster

import "syscall"

// fdQuiet reports whether a non-blocking read of fd finds nothing at all: no
// byte, no end of stream, no pending error. Go's sockets are always
// non-blocking, so the read returns at once either way. A byte it does take
// is not put back: a connection that had one is discarded.
func fdQuiet(fd uintptr) bool {
	var b [1]byte
	n, err := syscall.Read(int(fd), b[:])
	return n < 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
}
