package persist

import (
	"fmt"
	"path/filepath"
)

// maxTenantIDLen bounds a tenant id, on disk and in a segment record.
const maxTenantIDLen = 128

// ValidTenantID reports whether id is usable as a checkpoint namespace:
// non-empty, at most 128 bytes, and restricted to [A-Za-z0-9._-] with no
// leading dot, so an id can never escape the namespace root or collide
// with the manager's temp files.
func ValidTenantID(id string) error {
	if id == "" {
		return fmt.Errorf("persist: empty tenant id")
	}
	if len(id) > maxTenantIDLen {
		return fmt.Errorf("persist: tenant id longer than 128 bytes")
	}
	if id[0] == '.' {
		return fmt.Errorf("persist: tenant id %q starts with a dot", id)
	}
	for _, ch := range []byte(id) {
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch >= '0' && ch <= '9',
			ch == '.', ch == '_', ch == '-':
		default:
			return fmt.Errorf("persist: tenant id %q contains %q (want [A-Za-z0-9._-])", id, ch)
		}
	}
	return nil
}

// NewTenantManager opens (creating if needed) one tenant's checkpoint
// namespace, <root>/tenants/<id>/, for a caller that checkpoints tenants
// one at a time, and returns its Manager. A fleet commits all of its
// tenants' records to one segment instead (segment.go).
func NewTenantManager(root, tenant string, retain int) (*Manager, error) {
	if root == "" {
		return nil, fmt.Errorf("persist: empty state root")
	}
	return NewManager(filepath.Join(root, "tenants", tenant), tenant, retain)
}
