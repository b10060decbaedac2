package tensor

import (
	"sync"
	"testing"
)

func TestPoolRoundtrip(t *testing.T) {
	a := Get(3, 5)
	if a.Numel() != 15 || a.Dims() != 2 {
		t.Fatalf("Get(3,5) = %v", a.Shape())
	}
	for i := range a.Data {
		a.Data[i] = float32(i)
	}
	Put(a)
	b := Get(15) // same bucket (16)
	if cap(b.Data) != 16 {
		t.Fatalf("bucket capacity = %d, want 16", cap(b.Data))
	}
	Put(b)
}

func TestGetZero(t *testing.T) {
	a := Get(64)
	for i := range a.Data {
		a.Data[i] = 1
	}
	Put(a)
	z := GetZero(64)
	for i, v := range z.Data {
		if v != 0 {
			t.Fatalf("GetZero elem %d = %v", i, v)
		}
	}
	Put(z)
}

func TestPutForeignIgnored(t *testing.T) {
	// Non-power-of-two capacity: must not poison the pool.
	Put(FromSlice(make([]float32, 15), 15))
	Put(nil)
	Put(&Tensor{})
}

// TestPoolOutstanding pins the leak counter: every pooled Get raises it,
// every accepted Put lowers it, and the Puts the pool refuses (foreign
// capacities, nil, zero-size) leave it alone.
func TestPoolOutstanding(t *testing.T) {
	base := PoolOutstanding()
	a, b := Get(7, 9), GetZero(100)
	if got := PoolOutstanding() - base; got != 2 {
		t.Fatalf("after 2 Gets: outstanding +%d, want +2", got)
	}
	Put(a)
	Put(FromSlice(make([]float32, 15), 15))
	Put(nil)
	Put(Get(0, 4))
	if got := PoolOutstanding() - base; got != 1 {
		t.Fatalf("after 1 accepted Put: outstanding +%d, want +1", got)
	}
	Put(b)
	if got := PoolOutstanding() - base; got != 0 {
		t.Fatalf("after returning every buffer: outstanding +%d, want 0", got)
	}
}

func TestPoolZeroSize(t *testing.T) {
	z := Get(0, 4)
	if z.Numel() != 0 {
		t.Fatalf("Get(0,4).Numel() = %d", z.Numel())
	}
	Put(z)
}

func TestPoolSteadyStateNoAlloc(t *testing.T) {
	// Warm the bucket, then verify Get/Put cycles stop allocating.
	warm := Get(128, 128)
	Put(warm)
	allocs := testing.AllocsPerRun(100, func() {
		x := Get(128, 128)
		Put(x)
	})
	if allocs > 0 {
		t.Errorf("steady-state Get/Put allocates %.1f objects per cycle", allocs)
	}
}

func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				x := Get(32, 32)
				x.Fill(float32(seed))
				for _, v := range x.Data {
					if v != float32(seed) {
						t.Errorf("buffer aliased across goroutines")
						Put(x)
						return
					}
				}
				Put(x)
			}
		}(g)
	}
	wg.Wait()
}
