package persist

import (
	"fmt"
	"path/filepath"
)

// Per-tenant checkpoint namespaces: one snapshot sub-directory per tenant
// under <root>/tenants/<id>/, each managed by its own Manager, for a
// caller that checkpoints tenants one at a time. A fleet commits segments
// instead (segment.go) and reads this layout only to upgrade a state root
// an older build wrote.

// tenantsSubdir is the sub-directory of a state root that holds the
// per-tenant namespaces.
const tenantsSubdir = "tenants"

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

// TenantDir returns the checkpoint namespace directory of one tenant
// under a fleet state root, without creating it.
func TenantDir(root, tenant string) (string, error) {
	if root == "" {
		return "", fmt.Errorf("persist: empty state root")
	}
	if err := ValidTenantID(tenant); err != nil {
		return "", err
	}
	return filepath.Join(root, tenantsSubdir, tenant), nil
}

// NewTenantManager opens (creating if needed) the checkpoint namespace
// of one tenant under a fleet state root and returns its Manager.
func NewTenantManager(root, tenant string, retain int) (*Manager, error) {
	dir, err := TenantDir(root, tenant)
	if err != nil {
		return nil, err
	}
	return NewManager(dir, retain)
}
