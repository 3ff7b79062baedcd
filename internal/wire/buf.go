package wire

import (
	"io"
	"sync"
)

// Buf is a pooled scratch buffer: a request or reply body on its way through
// a codec, a journal frame being built. Whatever is decoded out of B must be
// a copy (Scanner's strings are), because B goes back to the pool.
type Buf struct{ B []byte }

// maxPooledBuf bounds the buffers the pool retains: a rare giant body or
// batch should not pin its scratch space forever.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 1<<10)} }}

// GetBuf returns an empty buffer.
func GetBuf() *Buf { return bufPool.Get().(*Buf) }

// Put hands b back; the caller must not touch b or b.B afterwards.
func (b *Buf) Put() {
	if cap(b.B) > maxPooledBuf {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}

// ReadAll appends everything r yields to B, like io.ReadAll.
func (b *Buf) ReadAll(r io.Reader) error {
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
