package match

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Row-sharded parallelism for the pair sweeps over every stored cell
// (forEachPair, the documentation vote over postings, the flooding
// rounds, the incremental patches). Work is split by matrix row: every
// goroutine writes only its own rows of the matrix's backing value
// array, so the sweeps need no locking and produce bit-identical results
// at any worker count — each cell is still computed by exactly one
// goroutine running the same code path.

// ResolveWorkers maps the package-wide parallelism convention to a
// concrete worker count: 0 (or any negative value) means GOMAXPROCS,
// 1 means fully sequential, n means n workers.
func ResolveWorkers(parallelism int) int {
	if parallelism == 1 {
		return 1
	}
	if parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallelism
}

// shardRows invokes fn(i) exactly once for every row index in [0, n),
// fanning the rows out across up to workers goroutines. Rows are handed
// out through an atomic counter so uneven row costs (entities with many
// children vs. bare attributes) balance dynamically. workers <= 1 runs
// inline with no goroutine overhead.
func shardRows(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
