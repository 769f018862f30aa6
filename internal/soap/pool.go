package soap

import (
	"bytes"
	"sync"
)

// bufPool recycles the scratch buffers used to assemble envelopes.
// Encoding sits on the invocation hot path (every proxy request wraps
// at least two envelopes), so assembling into a pooled buffer and
// copying out an exact-size slice replaces the buffer's grow-and-
// discard garbage with one right-sized allocation per envelope.
var bufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// maxPooledBuf bounds what goes back into the pool: a rare huge
// payload must not pin its buffer for the rest of the process.
const maxPooledBuf = 1 << 16

// build has fill write into a pooled buffer and returns an exact-size
// copy of what it wrote (the only allocation the caller keeps). The
// buffer never leaves this function, so nothing can use it after it is
// back in the pool.
func build(fill func(b *bytes.Buffer)) []byte {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	fill(b)
	out := append([]byte(nil), b.Bytes()...)
	if b.Cap() <= maxPooledBuf {
		bufPool.Put(b)
	}
	return out
}
