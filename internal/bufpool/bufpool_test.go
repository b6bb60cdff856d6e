package bufpool

import (
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, 0}, {1, 0}, {4096, 0}, {4097, 1}, {8192, 1},
		{8193, 2}, {1 << 20, 8}, {MaxPooled, numClasses - 1},
		{MaxPooled + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetLenAndClassCap(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 9000, 512 << 10, MaxPooled} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d): len = %d", n, len(b))
		}
		c := cap(b)
		if c&(c-1) != 0 || c < n || c > MaxPooled {
			t.Fatalf("Get(%d): cap %d is not a class size", n, c)
		}
		Put(b)
	}
	// Oversize falls through to the allocator with exact length.
	b := Get(MaxPooled + 1)
	if len(b) != MaxPooled+1 {
		t.Fatalf("oversize Get: len = %d", len(b))
	}
	Put(b) // must be a safe no-op
}

func TestRecycle(t *testing.T) {
	b := Get(10000)
	b[0] = 0xAB
	Put(b)
	// Same class: likely (not guaranteed — sync.Pool may drop) the same
	// backing array. Either way the length must be right and the buffer
	// usable.
	b2 := Get(12000)
	if len(b2) != 12000 {
		t.Fatalf("len = %d", len(b2))
	}
	Put(b2)
}

// TestGetPutAllocatesNothing: once warm, a Get/Put cycle allocates
// neither a buffer nor the box the pool keeps it in.
func TestGetPutAllocatesNothing(t *testing.T) {
	Put(Get(8000))
	if n := testing.AllocsPerRun(100, func() { Put(Get(8000)) }); n > 0 {
		t.Errorf("Get/Put allocates %.1f objects a cycle", n)
	}
}

func TestPutOffClassDropped(t *testing.T) {
	before := Stats()
	Put(make([]byte, 0, 5000)) // not a power of two: dropped
	Put(make([]byte, 0, 64))   // below min class: dropped
	Put(nil)
	if after := Stats(); after.Puts != before.Puts {
		t.Errorf("off-class Put recycled: %+v -> %+v", before, after)
	}
}

func TestGrowGeometric(t *testing.T) {
	b := Get(100)
	copy(b, "hello")
	b = Grow(b, 5000)
	if len(b) != 5000 || string(b[:5]) != "hello" {
		t.Fatalf("Grow lost contents: len=%d %q", len(b), b[:5])
	}
	// Growing by one byte at a time must not reallocate every step.
	caps := 0
	prev := cap(b)
	for i := 0; i < 100000; i++ {
		b = Grow(b, len(b)+1)
		if cap(b) != prev {
			caps++
			if cap(b) < 2*prev {
				t.Fatalf("non-geometric growth: %d -> %d", prev, cap(b))
			}
			prev = cap(b)
		}
	}
	if caps > 6 {
		t.Errorf("%d reallocations growing 5000 -> 105000 bytes", caps)
	}
	Put(b)
}

// TestLeakBalance is the leak check: a strict get/put discipline leaves
// Outstanding unchanged.
func TestLeakBalance(t *testing.T) {
	before := Outstanding()
	var bufs [][]byte
	for i := 0; i < 64; i++ {
		bufs = append(bufs, Get(1<<uint(10+i%10)))
	}
	for _, b := range bufs {
		Put(b)
	}
	if after := Outstanding(); after != before {
		t.Errorf("leak: outstanding %d -> %d", before, after)
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(512 << 10)
		Put(buf)
	}
}

// TestClassStatsCountsOneClass: a Get and a Put move the counters of
// the class that holds the size, and of no other.
func TestClassStatsCountsOneClass(t *testing.T) {
	small0, big0, all0 := ClassStats(5000), ClassStats(MaxPooled), Stats()
	Put(Get(5000))
	small, big, all := ClassStats(5000), ClassStats(MaxPooled), Stats()
	if small.Gets-small0.Gets != 1 || small.Puts-small0.Puts != 1 {
		t.Errorf("the 8 KiB class moved %+v -> %+v, want one Get and one Put", small0, small)
	}
	if big != big0 {
		t.Errorf("the largest class moved %+v -> %+v", big0, big)
	}
	if all.Gets-all0.Gets != 1 || all.Puts-all0.Puts != 1 {
		t.Errorf("Stats moved %+v -> %+v, want the class's one Get and one Put", all0, all)
	}
	if got := ClassStats(MaxPooled + 1); got != (PoolStats{}) {
		t.Errorf("ClassStats past MaxPooled = %+v, want zero", got)
	}
}
