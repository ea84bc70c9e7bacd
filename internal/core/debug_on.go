//go:build montagedebug

package core

import "montage/internal/pmem"

// assertNotView fails fast in debug builds (-tags montagedebug) if data
// is a view of dev's arena: an in-place Set appends into the payload's
// data, and through a view that would write the media directly, past
// the epoch system. Recovered payloads are views, and by DESIGN §15 no
// Set ever updates one in place.
func assertNotView(dev *pmem.Device, data []byte) {
	if dev.Aliases(data) {
		panic("core: in-place Set of a payload whose data is a view of the arena")
	}
}
