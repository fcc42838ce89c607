// Package fixture is the fixture module's root package; its declarations
// are roots.
package fixture

import "fixture/internal/lib"

// Public puts lib.Public, with all its methods, on the public surface.
type Public = lib.Public
