package walk

// infoCache is the bounded stateInfo cache behind spaceD, with second-chance
// (clock) eviction. It holds the records the walk does not derive — the start
// state, a restored window ring, CSS chain interiors — which are computed
// from scratch once and looked up again; a transition's own record is derived
// from its predecessor's and handed over through spaceD's derived ring, never
// put here, since a walk almost never revisits a state while it is cached.
// The previous policy cleared the whole map on overflow,
// which was allocation-free but indiscriminate: the moment more than
// infoCacheCap states were live — a long CSS chain, a wide window, or a walk
// revisiting a dense neighborhood — the hot window states were wiped along
// with the cold drive-by ones and every warm step degraded to a full kernel
// recomputation. The clock keeps one ref bit per slot: a lookup sets it, the
// eviction hand clears it as it sweeps, and only entries that went a full
// lap without a hit are replaced — so states the walk keeps touching survive
// overflow indefinitely while one-shot states recycle.
//
// The structure stays allocation-free in steady state: the slot array is
// allocated once at capacity, and the index map only ever holds up to
// infoCacheCap entries, so a delete-then-insert pair reuses map cells.
type infoCache struct {
	idx   map[State]int32
	slots []infoSlot
	hand  int32
	// hits/misses count lookups (diagnostics; read by tests and benches).
	hits   uint64
	misses uint64
}

type infoSlot struct {
	st  State
	fi  stateInfo
	ref bool
}

func newInfoCache() infoCache {
	return infoCache{
		idx:   make(map[State]int32, infoCacheCap),
		slots: make([]infoSlot, 0, infoCacheCap),
	}
}

// get looks st up, marking the entry recently used.
func (c *infoCache) get(st State) (stateInfo, bool) {
	if i, ok := c.idx[st]; ok {
		c.slots[i].ref = true
		c.hits++
		return c.slots[i].fi, true
	}
	c.misses++
	return stateInfo{}, false
}

// put inserts a record computed after a get miss. Below capacity it fills
// the next free slot; at capacity the clock hand sweeps to the first slot
// whose ref bit is clear (clearing set bits as it passes — each survivor
// pays one bit per lap) and replaces it. The sweep is bounded: after one
// full lap every bit is clear, so the second visit of the starting slot
// always evicts.
func (c *infoCache) put(st State, fi stateInfo) {
	if len(c.slots) < cap(c.slots) {
		c.idx[st] = int32(len(c.slots))
		c.slots = append(c.slots, infoSlot{st: st, fi: fi, ref: true})
		return
	}
	for {
		s := &c.slots[c.hand]
		if s.ref {
			s.ref = false
			c.hand = (c.hand + 1) % int32(len(c.slots))
			continue
		}
		delete(c.idx, s.st)
		s.st, s.fi, s.ref = st, fi, true
		c.idx[st] = c.hand
		c.hand = (c.hand + 1) % int32(len(c.slots))
		return
	}
}

// len reports the number of cached entries.
func (c *infoCache) len() int { return len(c.slots) }

// stats returns the lookup hit/miss counters.
func (c *infoCache) stats() (hits, misses uint64) { return c.hits, c.misses }
