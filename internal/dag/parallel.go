package dag

import (
	"fmt"
	"sync"
)

// RunMany executes the named tasks and their transitive dependencies with
// up to `workers` actions in flight at once — the role of doit's `-n`
// parallel execution. Independent subtrees (e.g. the per-job images of a
// multi-job workload) build concurrently. Run is this with one name and one
// worker.
//
// Scheduler bookkeeping (ready queue, pending counts, the executed map) is
// guarded by a scheduler-local mutex; engine state and stats are guarded by
// the engine mutex inside execute/needsRun/record, so workers can hash and
// run tasks concurrently without touching shared maps unlocked.
func (e *Engine) RunMany(names []string, workers int) error {
	if workers < 1 {
		workers = 1
	}
	// Collect the needed task set and check for cycles / unknown tasks.
	order, err := e.topoOrder(names)
	if err != nil {
		return err
	}
	if len(order) == 0 {
		return e.save()
	}

	// Dependency bookkeeping within the set.
	pending := map[string]int{} // task -> unmet dep count
	dependents := map[string][]string{}
	inSet := map[string]bool{}
	for _, name := range order {
		inSet[name] = true
	}
	for _, name := range order {
		t := e.tasks[name]
		count := 0
		for _, dep := range t.TaskDeps {
			if inSet[dep] {
				count++
				dependents[dep] = append(dependents[dep], name)
			}
		}
		pending[name] = count
	}

	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
		executed = map[string]bool{} // task -> ran its action?
	)
	ready := make(chan string, len(order))
	for _, name := range order {
		if pending[name] == 0 {
			ready <- name
		}
	}
	remaining := len(order)
	done := make(chan struct{})

	worker := func() {
		defer wg.Done()
		for name := range ready {
			t := e.tasks[name]
			mu.Lock()
			upstreamRan := false
			for _, dep := range t.TaskDeps {
				if executed[dep] {
					upstreamRan = true
				}
			}
			mu.Unlock()

			ran, err := e.execute(t, upstreamRan)

			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			executed[name] = ran && err == nil
			remaining--
			if firstErr == nil {
				for _, dep := range dependents[name] {
					pending[dep]--
					if pending[dep] == 0 {
						ready <- dep
					}
				}
			}
			if remaining == 0 || firstErr != nil {
				select {
				case <-done:
				default:
					close(done)
				}
			}
			mu.Unlock()
		}
	}

	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	<-done
	close(ready)
	wg.Wait()

	// What succeeded is saved even when a task failed: the next build skips
	// it rather than restoring or running it again.
	if err := e.save(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// topoOrder returns every needed task in dependency order.
func (e *Engine) topoOrder(names []string) ([]string, error) {
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		switch state[name] {
		case 1:
			return fmt.Errorf("dag: dependency cycle through task %q", name)
		case 2:
			return nil
		}
		t, ok := e.tasks[name]
		if !ok {
			return fmt.Errorf("dag: unknown task %q", name)
		}
		state[name] = 1
		for _, dep := range t.TaskDeps {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, name)
		return nil
	}
	for _, name := range names {
		if err := visit(name); err != nil {
			return nil, err
		}
	}
	return order, nil
}
