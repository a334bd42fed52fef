//go:build !linux

package ipc

import (
	"errors"
	"net"
	"os"
)

// arenaSupported: outside Linux pools have no arena, so clients never ask
// for one and every payload crosses the socket.
const arenaSupported = false

func writeWithFile(net.Conn, []byte, *os.File) error {
	return errors.New("ipc: descriptor passing is not supported on this platform")
}

func readWithFD(conn net.Conn, b []byte) (int, int, error) {
	n, err := conn.Read(b)
	return n, -1, err
}
