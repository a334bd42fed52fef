//go:build linux

package ipc

import (
	"errors"
	"net"
	"os"
	"syscall"
)

// arenaSupported: pooled clients ask for the server's arena (Linux has
// memfd and SCM_RIGHTS).
const arenaSupported = true

// writeWithFile writes b with f's descriptor attached as SCM_RIGHTS
// ancillary data on its first byte.
func writeWithFile(conn net.Conn, b []byte, f *os.File) error {
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		return errors.New("ipc: descriptor passing needs a UNIX socket")
	}
	n, _, err := uc.WriteMsgUnix(b, syscall.UnixRights(int(f.Fd())), nil)
	if err == nil && n < len(b) {
		_, err = conn.Write(b[n:])
	}
	return err
}

// readWithFD reads into b like conn.Read, additionally receiving one
// descriptor passed as SCM_RIGHTS (-1 when none came). Extra descriptors
// are closed.
func readWithFD(conn net.Conn, b []byte) (int, int, error) {
	uc, ok := conn.(*net.UnixConn)
	if !ok {
		n, err := conn.Read(b)
		return n, -1, err
	}
	oob := make([]byte, syscall.CmsgSpace(4*4))
	n, oobn, _, _, err := uc.ReadMsgUnix(b, oob)
	fd := -1
	if oobn > 0 {
		msgs, perr := syscall.ParseSocketControlMessage(oob[:oobn])
		if perr == nil {
			for i := range msgs {
				fds, _ := syscall.ParseUnixRights(&msgs[i])
				for _, f := range fds {
					if fd < 0 {
						fd = f
					} else {
						syscall.Close(f)
					}
				}
			}
		}
	}
	return n, fd, err
}
