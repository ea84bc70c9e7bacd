//go:build !montagedebug

package core

import "montage/internal/pmem"

// assertNotView is a no-op in normal builds; build with -tags
// montagedebug to check that an in-place Set never writes through a view
// of the arena.
func assertNotView(*pmem.Device, []byte) {}
