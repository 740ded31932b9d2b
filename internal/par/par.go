// Package par runs independent jobs on a bounded pool of goroutines.
// The campaign sweep's worlds, the traffic engine's realms, the fleet's
// realm days and the report's analysis stages all fan out through Each.
// Each job writes only its own result slot, so results never depend on
// the worker count or on scheduling.
package par

import "sync"

// Each calls fn(i) for every i in [0, n) and returns once every call has
// returned. With workers <= 1 or a single job, the calls run on the
// calling goroutine in ascending order; otherwise min(workers, n)
// goroutines take indexes from a channel.
func Each(n, workers int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	workers = min(workers, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}
