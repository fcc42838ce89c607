//go:build !amd64

package lib

// archStub is in a file the linux/amd64 build does not read, so it is
// neither flagged nor able to keep anything alive.
func archStub() {}
