package kv

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVirtualNodes is the number of ring points per shard. 64 points per
// shard keeps the maximum-to-mean key imbalance under ~20% for the shard
// counts this package targets.
const defaultVirtualNodes = 64

// maxRingPoints bounds the ring a routing table may ask for: Shards × VNodes
// points, with VNodes 0 counting as defaultVirtualNodes. The decoder refuses
// a larger table and Resharding will not propose one, so neither a response
// nor a migrate command can make newRing allocate more.
const maxRingPoints = 1 << 20

// Routing is the store's epoch-versioned shard routing table: everything a
// party needs to map keys onto shard groups, small enough to travel in every
// request and response. It is a first-class replicated object — each shard's
// state machine carries the routing it operates under, updated only by
// sequenced migration commands through the shard's total order, so every
// replica (and every write-ahead log) agrees on which epoch owns which keys.
//
// The Epoch strictly increases with every completed resharding. Two tables
// with the same Epoch are identical; a party holding the higher Epoch holds
// the newer truth. Clients stamp their epoch on requests, and a service
// answering a stale epoch attaches its own table to the response — in-flight
// clients converge on the new routing without any config service.
type Routing struct {
	// Epoch is the table's version; 0 is the bootstrap table.
	Epoch uint64
	// Shards is the shard-group count under this table.
	Shards int
	// VNodes is the consistent-hash points per shard.
	VNodes int
}

// ringFits reports whether rt's ring stays within maxRingPoints.
func (rt Routing) ringFits() bool {
	vn := rt.VNodes
	if vn <= 0 {
		vn = defaultVirtualNodes
	}
	return rt.Shards <= maxRingPoints/vn
}

// ring materialises a Routing for key lookups.
func (rt Routing) ring(store string) *ring {
	return newRing(store, rt.Shards, rt.VNodes)
}

// ring maps keys to shards by consistent hashing: each shard owns
// virtualNodes points on a 64-bit circle and a key belongs to the shard
// owning the first point at or after the key's hash. Adding a shard moves
// only the keys that land on its new points, which is what keeps live
// resharding's data movement proportional to (new−old)/new instead of the
// (new−1)/new a naive rehash would move.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// hash64 is FNV-1a with a 64-bit finalizer mix. Raw FNV of strings that
// differ only in a few trailing digits (shard/vnode labels, sequential keys)
// clusters in the high bits, which would bunch each shard's points into one
// arc of the circle; the fmix64 avalanche spreads them uniformly.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newRing builds the ring for a named store. The store name participates in
// the point hashes so distinct stores shard the same keys differently.
func newRing(store string, shards, virtualNodes int) *ring {
	if virtualNodes <= 0 {
		virtualNodes = defaultVirtualNodes
	}
	r := &ring{
		points: make([]ringPoint, 0, shards*virtualNodes),
		shards: shards,
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(fmt.Sprintf("%s/shard-%d#%d", store, s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// shard returns the shard owning key.
func (r *ring) shard(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].shard
}

// owns reports whether shard s owns key under this ring.
func (r *ring) owns(s int, key string) bool { return r.shard(key) == s }
