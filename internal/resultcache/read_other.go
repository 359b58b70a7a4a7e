//go:build !unix

package resultcache

import "os"

// readFile reads a store file whole. Platforms without the raw unix read
// path (read_unix.go) use os.ReadFile.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
