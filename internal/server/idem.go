package server

import "hash/maphash"

// idemMemory is a tenant's idempotency memory: the responses of its last
// MaxIdemKeys keyed submits, oldest first. A resubmit with a remembered
// key returns the original response without applying or journaling again.
// It is rebuilt identically on replay — records carry the key — so
// retry-after-crash and retry-after-promotion both dedupe, and a
// checkpoint carries it in FIFO order (entries).
//
// It holds no pointer the collector marks per key: a ring of fixed-size
// entries in insertion order, one byte arena holding each entry's key then
// its at, oldest first, and an open-addressed table of ring slots (slot+1,
// 0 empty; linear probing, backward-shift deletion) hashed with maphash.
// All three grow on demand, so a tenant that never sees a key holds
// nothing. Eviction is insertion order, which is deterministic under
// replay because replay re-applies the same records in the same order; the
// hash seed orders nothing anyone reads. Drainer only.
type idemMemory struct {
	ents []idemSlot
	head int // ring slot of the oldest entry
	n    int // entries held
	// arena holds the entries' bytes from the oldest on, possibly after a
	// dead prefix of evicted ones; base is the arena offset of arena[0].
	// Offsets are uint32 and wrap: only their differences are read, and the
	// live span is far below 2^32.
	arena []byte
	base  uint32
	index []uint16 // len a power of two, at least 2·len(ents)
}

// idemSlot is one remembered submit: its key and at are arena bytes
// off .. off+klen+alen. hash is the low 16 bits of the key's hash: with
// MaxIdemKeys at most 2^15 the table never outgrows 2^16 slots, so they
// place the entry at any size. The bounds are the service's: keys are at
// most MaxKeyLen bytes, an at a canonical time string of a few dozen
// bytes, pending at most MaxBacklog.
type idemSlot struct {
	off     uint32
	hash    uint16
	klen    uint8
	alen    uint8
	pending int32
}

var idemSeed = maphash.MakeSeed()

func (m *idemMemory) nth(i int) *idemSlot { return &m.ents[(m.head+i)%len(m.ents)] }

func (m *idemMemory) key(e *idemSlot) []byte {
	at := e.off - m.base
	return m.arena[at : at+uint32(e.klen)]
}

func (m *idemMemory) at(e *idemSlot) []byte {
	at := e.off - m.base + uint32(e.klen)
	return m.arena[at : at+uint32(e.alen)]
}

// find returns the index position holding key's entry, or -1.
func (m *idemMemory) find(key string) int {
	if len(m.index) == 0 || key == "" {
		return -1
	}
	h := uint16(maphash.String(idemSeed, key))
	mask := len(m.index) - 1
	for i := int(h) & mask; m.index[i] != 0; i = (i + 1) & mask {
		e := &m.ents[m.index[i]-1]
		if e.hash == h && int(e.klen) == len(key) && string(m.key(e)) == key {
			return i
		}
	}
	return -1
}

// lookup returns the response remembered for key; the empty key is never
// one.
func (m *idemMemory) lookup(key string) (SubmitJobResponse, bool) {
	i := m.find(key)
	if i < 0 {
		return SubmitJobResponse{}, false
	}
	e := &m.ents[m.index[i]-1]
	return SubmitJobResponse{At: string(m.at(e)), Pending: int(e.pending)}, true
}

// remember records a keyed submit's response, evicting the oldest key once
// MaxIdemKeys are held. A seen key, and the empty key, change nothing.
func (m *idemMemory) remember(key string, resp SubmitJobResponse) {
	if key == "" || m.find(key) >= 0 {
		return
	}
	if m.n == len(m.ents) {
		if m.n < MaxIdemKeys {
			m.grow()
		} else {
			m.evict()
		}
	}
	need := len(key) + len(resp.At)
	if lo := m.live(); len(m.arena)+need > cap(m.arena) && 4*lo >= len(m.arena) {
		// A quarter or more of the arena is evicted bytes: reclaim them
		// before growing it.
		m.arena = m.arena[:copy(m.arena, m.arena[lo:])]
		m.base += uint32(lo)
	}
	h := uint16(maphash.String(idemSeed, key))
	s := (m.head + m.n) % len(m.ents)
	m.ents[s] = idemSlot{
		off: m.base + uint32(len(m.arena)), hash: h,
		klen: uint8(len(key)), alen: uint8(len(resp.At)), pending: int32(resp.Pending),
	}
	m.arena = append(append(m.arena, key...), resp.At...)
	m.place(s, h)
	m.n++
}

// live is where the oldest entry's bytes start in the arena: everything
// before it is evicted.
func (m *idemMemory) live() int {
	if m.n == 0 {
		return len(m.arena)
	}
	return int(m.nth(0).off - m.base)
}

// place enters ring slot s, whose key's hash is h, in the table.
func (m *idemMemory) place(s int, h uint16) {
	mask := len(m.index) - 1
	i := int(h) & mask
	for m.index[i] != 0 {
		i = (i + 1) & mask
	}
	m.index[i] = uint16(s + 1)
}

// grow doubles the ring, up to MaxIdemKeys, laying the entries out oldest
// first, and rebuilds the table at twice its size or more.
func (m *idemMemory) grow() {
	ents := make([]idemSlot, min(max(2*len(m.ents), 16), MaxIdemKeys))
	for i := range m.n {
		ents[i] = *m.nth(i)
	}
	m.ents, m.head = ents, 0
	size := 1
	for size < 2*len(ents) {
		size *= 2
	}
	m.index = make([]uint16, size)
	for s := range m.n {
		m.place(s, ents[s].hash)
	}
}

// evict forgets the oldest entry: its table position is emptied by
// shifting back every later entry of its probe run that may move there.
// Its arena bytes stay, dead, until remember reclaims them.
func (m *idemMemory) evict() {
	mask := len(m.index) - 1
	old := m.head + 1
	i := int(m.ents[m.head].hash) & mask
	for int(m.index[i]) != old {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if home := int(m.ents[m.index[j]-1].hash) & mask; (j-home)&mask >= (j-i)&mask {
			m.index[i] = m.index[j]
			i = j
		}
	}
	m.index[i] = 0
	m.head = (m.head + 1) % len(m.ents)
	m.n--
}

// entries lists the memory oldest first, as a checkpoint carries it. The
// keys and ats are substrings of one copy of the arena.
func (m *idemMemory) entries() []idemEntry {
	if m.n == 0 {
		return nil
	}
	lo := m.live()
	s := string(m.arena[lo:])
	out := make([]idemEntry, m.n)
	for i := range out {
		e := m.nth(i)
		k := int(e.off-m.base) - lo
		a := k + int(e.klen)
		out[i] = idemEntry{Key: s[k:a], At: s[a : a+int(e.alen)], Pending: int(e.pending)}
	}
	return out
}
