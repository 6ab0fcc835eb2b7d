package exec

// keySet is a set of encoded keys: the key bytes live in one arena
// behind an open-addressed chained index, so adding a key allocates
// nothing per key. Keys are numbered 0, 1, ... in insertion order. The
// semijoin filter keeps its distinct join keys in one, and the
// generalized outerjoin its distinct S-projections.
type keySet struct {
	bytes  []byte
	off    []int32  // key j starts at bytes[off[j]]
	hashes []uint32 // key j's hash, for fast chain rejection
	heads  []int32  // bucket -> first key (-1 empty)
	chain  []int32  // key -> next key in the same bucket (-1 end)
	mask   uint32
}

// len returns the number of keys.
func (k *keySet) len() int { return len(k.off) }

// key returns key j's bytes.
func (k *keySet) key(j int32) []byte {
	end := int32(len(k.bytes))
	if int(j)+1 < len(k.off) {
		end = k.off[j+1]
	}
	return k.bytes[k.off[j]:end]
}

// find returns the number of key kb (whose hash is hash), or -1.
func (k *keySet) find(kb []byte, hash uint32) int32 {
	if len(k.heads) == 0 {
		return -1
	}
	for j := k.heads[hash&k.mask]; j >= 0; j = k.chain[j] {
		if k.hashes[j] == hash && string(k.key(j)) == string(kb) {
			return j
		}
	}
	return -1
}

// add inserts kb, which must not be present, and returns its number.
func (k *keySet) add(kb []byte, hash uint32) int32 {
	j := int32(len(k.off))
	k.off = append(k.off, int32(len(k.bytes)))
	k.bytes = append(k.bytes, kb...)
	k.hashes = append(k.hashes, hash)
	if 2*len(k.off) > len(k.heads) {
		k.rehash(2 * len(k.heads))
	} else {
		b := hash & k.mask
		k.chain = append(k.chain, k.heads[b])
		k.heads[b] = j
	}
	return j
}

// truncate forgets every key after the first n.
func (k *keySet) truncate(n int) {
	if n == len(k.off) {
		return
	}
	k.bytes = k.bytes[:k.off[n]]
	k.off, k.hashes = k.off[:n], k.hashes[:n]
	k.rehash(len(k.heads))
}

// reset empties the set, keeping the allocations.
func (k *keySet) reset() { k.truncate(0) }

// rehash rebuilds the index with at least n buckets (and at least two
// per key).
func (k *keySet) rehash(n int) {
	n = max(n, 16)
	for n < 2*len(k.off) {
		n <<= 1
	}
	if cap(k.heads) >= n {
		k.heads = k.heads[:n]
	} else {
		k.heads = make([]int32, n)
	}
	for i := range k.heads {
		k.heads[i] = -1
	}
	k.mask = uint32(n - 1)
	k.chain = k.chain[:0]
	for i, h := range k.hashes {
		b := h & k.mask
		k.chain = append(k.chain, k.heads[b])
		k.heads[b] = int32(i)
	}
}
