package shard

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunCoversAll: every index is executed exactly once, for pool
// sizes both below and above the item count, including the degenerate
// serial pool.
func TestPoolRunCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{0, 1, 3, 64, 1000} {
			p := NewPool(workers)
			counts := make([]int32, n)
			p.Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
			p.Close()
		}
	}
}

// TestPoolRunJoins: Run must not return before every call finished.
func TestPoolRunJoins(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var done atomic.Int32
	p.Run(32, func(i int) {
		time.Sleep(time.Millisecond)
		done.Add(1)
	})
	if got := done.Load(); got != 32 {
		t.Fatalf("Run returned with %d/32 calls finished", got)
	}
}

// TestPoolClose: Run after Close degrades to inline execution, and Close
// is idempotent.
func TestPoolClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	ran := make([]bool, 4)
	p.Run(4, func(i int) { ran[i] = true })
	for i, ok := range ran {
		if !ok {
			t.Fatalf("index %d skipped after Close", i)
		}
	}
	p.Close() // idempotent
}

// TestPoolWorkers reports the clamped size.
func TestPoolWorkers(t *testing.T) {
	if got := NewPool(0).Workers(); got != 1 {
		t.Fatalf("Workers() = %d, want 1", got)
	}
	p := NewPool(3)
	defer p.Close()
	if got := p.Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
}
