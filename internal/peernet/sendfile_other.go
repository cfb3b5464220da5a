//go:build !linux

package peernet

import (
	"net"
	"os"
)

// newFileSender is sendfile_linux.go's: elsewhere no connection has
// one and every response leaves by writev.
func newFileSender(net.Conn) func([]byte, *os.File, int64, int) error { return nil }
