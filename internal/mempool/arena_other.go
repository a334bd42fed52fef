//go:build !linux

package mempool

import "os"

// Mapping is a mapping of an exported arena file. Arenas need memfd and
// descriptor passing, so outside Linux pools stay on the heap and no
// mapping is ever made.
type Mapping struct{}

// MapArena reports that arenas are unsupported on this platform.
func MapArena(fd int) (*Mapping, error) { return nil, errNoArena }

// Close is a no-op.
func (m *Mapping) Close() {}

// Slice reports that arenas are unsupported on this platform.
func (m *Mapping) Slice(off, n int64) ([]byte, error) { return nil, errNoArena }

// arena is never created outside Linux.
type arena struct{}

func newArena() (*arena, error)                  { return nil, errNoArena }
func (a *arena) readOnly() (*os.File, error)     { return nil, errNoArena }
func (a *arena) alloc(int) ([]byte, int64, bool) { return nil, 0, false }
func (a *arena) free(int64, int)                 {}
func (a *arena) drop()                           {}
func (a *arena) close()                          {}
