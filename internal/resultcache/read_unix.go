//go:build unix

package resultcache

import "syscall"

// firstRead is the first read buffer: a whole result or oracle file in
// one read (a few hundred bytes). Longer files grow the buffer.
const firstRead = 1024

// readFile reads a store file whole with raw system calls: open, read to
// EOF, close. A warm re-run reads every store file once, and os.ReadFile's
// poller registration and size probe cost more than such a small read.
// Every failure (an absent file, a directory at the path) is an error,
// which the store path treats as a miss, as it treats os.ReadFile's.
func readFile(path string) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	b := make([]byte, 0, firstRead)
	for {
		n, err := syscall.Read(fd, b[len(b):cap(b)])
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return nil, err
		case n == 0:
			return b, nil
		}
		b = b[:len(b)+n]
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
