//go:build !linux

package prisma_test

import (
	"errors"
	"testing"
)

// mapArenaWritable is never reached: arenas need Linux.
func mapArenaWritable(t *testing.T) error { return errors.ErrUnsupported }
