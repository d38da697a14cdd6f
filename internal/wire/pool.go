package wire

import (
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
)

// Frame buffer pool. The transport hot loops (stream frames, collective
// chunks, serving requests) read one frame per message; without reuse every
// frame is a fresh allocation sized by the peer. Buffers are pooled in
// power-of-two size classes behind a plain mutex-guarded free list rather
// than sync.Pool: Put of a []byte through an interface forces the slice
// header to escape, which would put an allocation back on the very path the
// pool exists to clear.
//
// Ownership contract: GetBuf transfers ownership to the caller; PutBuf
// transfers it back. A buffer must not be touched after PutBuf, and PutBuf
// must be called at most once per GetBuf. Buffers from elsewhere may be
// handed to PutBuf too — odd capacities are simply dropped.
const (
	minBufClass = 8  // 256 B: below this pooling costs more than malloc
	maxBufClass = 22 // 4 MiB: above this, buffers are left to the GC
	maxPerClass = 64 // bound per-class retention at a few hundred MiB total
)

var bufClasses [maxBufClass + 1]struct {
	mu   sync.Mutex
	free [][]byte
}

// GetBuf returns a buffer of length n with unspecified contents, drawn from
// the pool when a large-enough buffer is available.
func GetBuf(n int) []byte {
	c := sizeClass(n)
	if c > maxBufClass {
		return make([]byte, n)
	}
	bc := &bufClasses[c]
	bc.mu.Lock()
	if k := len(bc.free); k > 0 {
		b := bc.free[k-1]
		bc.free[k-1] = nil
		bc.free = bc.free[:k-1]
		bc.mu.Unlock()
		return b[:n]
	}
	bc.mu.Unlock()
	return make([]byte, n, 1<<c)
}

// PutBuf returns a buffer obtained from GetBuf (or any buffer the caller is
// done with) to the pool. The caller must not use b afterwards.
func PutBuf(b []byte) {
	c := capClass(cap(b))
	if c < 0 {
		return
	}
	bc := &bufClasses[c]
	bc.mu.Lock()
	if len(bc.free) < maxPerClass {
		bc.free = append(bc.free, b[:0])
	}
	bc.mu.Unlock()
}

// sizeClass returns the smallest class whose buffers hold n bytes.
func sizeClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	return bits.Len(uint(n - 1))
}

// capClass returns the largest class a buffer of capacity c can serve, or -1
// if it is too small to pool.
func capClass(c int) int {
	k := bits.Len(uint(c)) - 1
	if k < minBufClass {
		return -1
	}
	if k > maxBufClass {
		return maxBufClass
	}
	return k
}

// ReadFramePooled reads one length-prefixed frame into a pooled buffer. The
// caller owns the result and should hand it back with PutBuf once consumed.
func ReadFramePooled(r io.Reader) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if n > eagerFrameBytes {
		return readLargePayload(r, n)
	}
	buf := GetBuf(n)
	if _, err := io.ReadFull(r, buf); err != nil {
		PutBuf(buf)
		return nil, err
	}
	return buf, nil
}

// ReadFrameInto reads one length-prefixed frame, reusing buf's capacity when
// it suffices; the result aliases buf only in that case.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, err
	}
	if cap(buf) < n {
		if n > eagerFrameBytes {
			return readLargePayload(r, n)
		}
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err = io.ReadFull(r, buf)
	return buf, err
}

// readFrameLen reads the 4-byte length prefix. The scratch comes from the
// buffer pool: a stack array would escape to the heap through the
// io.ReadFull interface call, putting an allocation on every frame.
func readFrameLen(r io.Reader) (int, error) {
	hdr := GetBuf(4)
	_, err := io.ReadFull(r, hdr)
	n := binary.BigEndian.Uint32(hdr)
	PutBuf(hdr)
	if err != nil {
		return 0, err
	}
	if int64(n) > MaxMessageSize {
		return 0, ErrMessageTooLarge
	}
	return int(n), nil
}
