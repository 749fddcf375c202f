package state

import (
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func TestGetSetRoundTrip(t *testing.T) {
	s := NewStore(1024)
	a := s.Accessor(3, stream.Key(42))
	if a.Get() != nil {
		t.Fatal("fresh state not nil")
	}
	a.Set(7)
	if got := a.Get(); got != 7 {
		t.Fatalf("Get = %v", got)
	}
	// Same key through a new accessor sees the same slot.
	if got := s.Accessor(3, stream.Key(42)).Get(); got != 7 {
		t.Fatalf("second accessor = %v", got)
	}
	// Different key is independent.
	if s.Accessor(3, stream.Key(43)).Get() != nil {
		t.Fatal("cross-key leakage")
	}
	// Same key in a different shard is independent (keys are scoped by shard).
	if s.Accessor(4, stream.Key(42)).Get() != nil {
		t.Fatal("cross-shard leakage")
	}
}

func TestShardBytes(t *testing.T) {
	s := NewStore(32 << 10)
	if s.ShardBytes(9) != 32<<10 {
		t.Fatalf("default bytes = %d", s.ShardBytes(9))
	}
	s.SetShardBytes(9, 1<<20)
	if s.ShardBytes(9) != 1<<20 {
		t.Fatalf("bytes = %d", s.ShardBytes(9))
	}
}

func TestExtractInstallMovesState(t *testing.T) {
	src := NewStore(100)
	dst := NewStore(100)
	src.Accessor(1, stream.Key(10)).Set("a")
	src.Accessor(1, stream.Key(11)).Set("b")
	src.Accessor(2, stream.Key(10)).Set("other-shard")

	m := src.Extract(1)
	if m.KeyCount() != 2 || m.Bytes != 100 {
		t.Fatalf("migration keys=%d bytes=%d", m.KeyCount(), m.Bytes)
	}
	if src.HasShard(1) {
		t.Fatal("shard still resident after extract")
	}
	if !src.HasShard(2) {
		t.Fatal("unrelated shard disturbed")
	}
	dst.Install(m)
	if got := dst.Accessor(1, stream.Key(10)).Get(); got != "a" {
		t.Fatalf("migrated value = %v", got)
	}
	if got := dst.Accessor(1, stream.Key(11)).Get(); got != "b" {
		t.Fatalf("migrated value = %v", got)
	}
}

func TestExtractUntouchedShard(t *testing.T) {
	s := NewStore(500)
	m := s.Extract(7)
	if m.Bytes != 500 || m.KeyCount() != 0 {
		t.Fatalf("untouched shard migration: %+v", m)
	}
	NewStore(500).Install(m) // must be installable
}

func TestInstallOverResidentPanics(t *testing.T) {
	s := NewStore(10)
	s.Accessor(5, stream.Key(1)).Set(1)
	m := &Migration{Shard: 5, keys: map[stream.Key]*keyState{}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Install(m)
}

func TestCounts(t *testing.T) {
	s := NewStore(10)
	s.Accessor(0, stream.Key(1)).Set(1)
	s.Accessor(0, stream.Key(2)).Set(1)
	s.Accessor(1, stream.Key(1)).Set(1)
	if s.KeyCount(0) != 2 || s.KeyCount(1) != 1 || s.KeyCount(2) != 0 {
		t.Fatalf("KeyCount wrong: %d %d %d", s.KeyCount(0), s.KeyCount(1), s.KeyCount(2))
	}
	if s.TotalKeys() != 3 {
		t.Fatalf("TotalKeys = %d", s.TotalKeys())
	}
}

// Property: after any sequence of sets followed by a migration, every key
// written reads back the last written value from the destination store.
func TestMigrationPreservesAllWrites(t *testing.T) {
	f := func(keys []uint16, seed uint8) bool {
		src := NewStore(64)
		want := map[stream.Key]int{}
		for i, k := range keys {
			key := stream.Key(k)
			src.Accessor(1, key).Set(i)
			want[key] = i
		}
		dst := NewStore(64)
		dst.Install(src.Extract(1))
		for k, v := range want {
			if dst.Accessor(1, k).Get() != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccessorIsReboundNotBoxed pins the accessor contract: a store hands out
// its one accessor rebound to the requested slot (so a handler call allocates
// nothing), which is why an accessor is only valid until the next one is
// taken from the same store.
func TestAccessorIsReboundNotBoxed(t *testing.T) {
	s := NewStore(1024)
	s.Accessor(1, stream.Key(1)).Set("a")
	s.Accessor(2, stream.Key(2)).Set("b")

	first := s.Accessor(1, stream.Key(1))
	second := s.Accessor(2, stream.Key(2))
	if first != second {
		t.Fatal("Accessor handed out two distinct accessors for one store")
	}
	if got := first.Get(); got != "b" {
		t.Fatalf("retained accessor reads %v: it should have been rebound to the second slot", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Accessor(1, stream.Key(1)).Get() }); allocs != 0 {
		t.Fatalf("Accessor allocates %.1f objects per call, want 0", allocs)
	}
}
