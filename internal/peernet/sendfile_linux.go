//go:build linux

package peernet

import (
	"io"
	"net"
	"os"
	"syscall"
)

// fileSender puts a READ response on a socket without its body
// entering user space: the header with MSG_MORE, then sendfile(2) from
// the file's descriptor at an explicit offset — the descriptor is the
// backend's, shared by every connection streaming the file, so its
// position is never used or moved. One per connection: step is bound
// to the RawConn once, and the fields carry one send's progress across
// the EAGAINs that park it on the poller.
type fileSender struct {
	rc   syscall.RawConn
	step func(fd uintptr) bool
	hdr  []byte
	in   int
	off  int64
	left int
	err  error
}

// newFileSender returns the send of a fileSender on conn, or nil when
// conn is not a socket the process can name: a net.Pipe, a wrapper.
func newFileSender(conn net.Conn) func(hdr []byte, f *os.File, off int64, n int) error {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &fileSender{rc: rc}
	s.step = s.push
	return s.send
}

// send writes hdr and then n bytes of f at off. The caller keeps f
// open, and the range inside an inode nobody shrinks, until it returns.
func (s *fileSender) send(hdr []byte, f *os.File, off int64, n int) error {
	s.hdr, s.in, s.off, s.left, s.err = hdr, int(f.Fd()), off, n, nil
	if err := s.rc.Write(s.step); err != nil {
		return err
	}
	return s.err
}

// push is the RawConn.Write callback: returning false waits for the
// socket to be writable and calls it again.
func (s *fileSender) push(fd uintptr) bool {
	for len(s.hdr) > 0 || s.left > 0 {
		var n int
		var err error
		if len(s.hdr) > 0 {
			n, err = syscall.SendmsgN(int(fd), s.hdr, nil, nil, syscall.MSG_MORE)
			s.hdr = s.hdr[max(n, 0):]
		} else if n, err = syscall.Sendfile(int(fd), s.in, &s.off, s.left); n > 0 {
			s.left -= n
		} else if err == nil {
			err = io.ErrUnexpectedEOF // the file ends inside the view: truncated from outside
		}
		switch err {
		case nil, syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			s.err = err
			return true
		}
	}
	return true
}
