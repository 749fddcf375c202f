// Package state implements the in-memory, per-process key-value store that
// backs stateful operators (paper §3.2).
//
// Each process of an elastic executor hosts one Store. Tasks in that process
// read and update per-key state directly through the store — the paper's
// "intra-process state sharing" — so a shard reassigned between two tasks of
// the same process needs no state movement. Only when a shard moves across
// processes (nodes) must its state be extracted, shipped, and installed,
// which is what the migration cost model charges for.
package state

import (
	"fmt"

	"repro/internal/stream"
)

// ShardID identifies an executor-level shard within one executor.
type ShardID int

// keyState is the stored value plus bookkeeping for one key.
type keyState struct {
	value interface{}
}

// shardState holds all key states of one shard plus its nominal byte size.
type shardState struct {
	keys  map[stream.Key]*keyState
	bytes int // nominal resident size used by the migration cost model
}

// Store is the state store of one process. It is keyed by (shard, key): the
// shard level exists so that whole shards can be extracted and installed in
// O(1) map moves during migration.
type Store struct {
	shards map[ShardID]*shardState
	// DefaultShardBytes is the nominal size a shard reports if it was never
	// given an explicit size (operators configure StatePerShard).
	DefaultShardBytes int

	acc accessor // the store's one accessor, rebound by every Accessor call
}

// NewStore returns an empty process-local store.
func NewStore(defaultShardBytes int) *Store {
	return &Store{shards: make(map[ShardID]*shardState), DefaultShardBytes: defaultShardBytes}
}

func (s *Store) shard(id ShardID) *shardState {
	sh := s.shards[id]
	if sh == nil {
		sh = &shardState{keys: make(map[stream.Key]*keyState), bytes: s.DefaultShardBytes}
		s.shards[id] = sh
	}
	return sh
}

// HasShard reports whether the store currently holds state for shard id.
func (s *Store) HasShard(id ShardID) bool { return s.shards[id] != nil }

// ShardBytes returns the nominal resident size of shard id in bytes; a shard
// never touched reports the default size (the paper treats shard state size
// as a workload parameter, e.g. 32 KB).
func (s *Store) ShardBytes(id ShardID) int {
	if sh := s.shards[id]; sh != nil {
		return sh.bytes
	}
	return s.DefaultShardBytes
}

// SetShardBytes overrides the nominal size of shard id.
func (s *Store) SetShardBytes(id ShardID, bytes int) { s.shard(id).bytes = bytes }

// Accessor returns a stream.StateAccessor bound to (shard, key). It is the
// store's single accessor, rebound: the next Accessor call on the same store
// redirects it, so it is valid only until then — the duration of one handler
// invocation on the simulator's single thread (stream.StateAccessor). Handing
// out its pointer keeps the per-tuple handler call free of boxing.
func (s *Store) Accessor(id ShardID, k stream.Key) stream.StateAccessor {
	s.acc = accessor{store: s, shard: id, key: k}
	return &s.acc
}

type accessor struct {
	store *Store
	shard ShardID
	key   stream.Key
}

func (a *accessor) Get() interface{} {
	sh := a.store.shards[a.shard]
	if sh == nil {
		return nil
	}
	ks := sh.keys[a.key]
	if ks == nil {
		return nil
	}
	return ks.value
}

func (a *accessor) Set(v interface{}) {
	sh := a.store.shard(a.shard)
	ks := sh.keys[a.key]
	if ks == nil {
		ks = &keyState{}
		sh.keys[a.key] = ks
	}
	ks.value = v
}

// KeyCount returns the number of distinct keys with state in shard id.
func (s *Store) KeyCount(id ShardID) int {
	if sh := s.shards[id]; sh != nil {
		return len(sh.keys)
	}
	return 0
}

// ResidentBytes sums the nominal sizes of all resident shards (the state a
// process would lose if its node failed).
func (s *Store) ResidentBytes() int64 {
	var b int64
	for _, sh := range s.shards {
		b += int64(sh.bytes)
	}
	return b
}

// TotalKeys returns the number of keys with state across all shards.
func (s *Store) TotalKeys() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.keys)
	}
	return n
}

// Extract removes shard id from the store and returns its contents for
// shipment to another process. Extracting a shard that is not resident
// returns an empty (but installable) migration package of default size: a
// shard that has received no tuples still has its configured state footprint.
func (s *Store) Extract(id ShardID) *Migration {
	sh := s.shards[id]
	if sh == nil {
		return &Migration{Shard: id, Bytes: s.DefaultShardBytes, keys: map[stream.Key]*keyState{}}
	}
	delete(s.shards, id)
	return &Migration{Shard: id, Bytes: sh.bytes, keys: sh.keys}
}

// Install inserts a migrated shard into the store. Installing over an
// existing shard is a consistency bug and panics: the reassignment protocol
// must have extracted it first.
func (s *Store) Install(m *Migration) {
	if s.shards[m.Shard] != nil {
		panic(fmt.Sprintf("state: installing shard %d over resident state", m.Shard))
	}
	s.shards[m.Shard] = &shardState{keys: m.keys, bytes: m.Bytes}
}

// Migration is an extracted shard in transit between processes.
type Migration struct {
	Shard ShardID
	Bytes int // nominal wire size charged to the network
	keys  map[stream.Key]*keyState
}

// KeyCount returns the number of keys carried by the migration.
func (m *Migration) KeyCount() int { return len(m.keys) }
