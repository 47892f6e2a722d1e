package dag

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunManyBuildsAll(t *testing.T) {
	dir := t.TempDir()
	e, _ := NewEngine(filepath.Join(dir, "db.json"))
	var count int32
	for i := 0; i < 8; i++ {
		target := filepath.Join(dir, fmt.Sprintf("out%d", i))
		e.Register(&Task{
			Name:    fmt.Sprintf("t%d", i),
			Targets: []string{target},
			Action: func() error {
				atomic.AddInt32(&count, 1)
				return os.WriteFile(target, []byte("x"), 0o644)
			},
		})
	}
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	if err := e.RunMany(names, 4); err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Errorf("executed %d tasks", count)
	}
	// Second run: all skipped.
	e2, _ := NewEngine(filepath.Join(dir, "db.json"))
	for i := 0; i < 8; i++ {
		i := i
		target := filepath.Join(dir, fmt.Sprintf("out%d", i))
		e2.Register(&Task{
			Name:    fmt.Sprintf("t%d", i),
			Targets: []string{target},
			Action:  func() error { return os.WriteFile(target, []byte("x"), 0o644) },
		})
	}
	if err := e2.RunMany(names, 4); err != nil {
		t.Fatal(err)
	}
	if len(e2.Executed) != 0 {
		t.Errorf("no-op parallel rebuild executed %v", e2.Executed)
	}
}

func TestRunManyRespectsDependencies(t *testing.T) {
	dir := t.TempDir()
	e, _ := NewEngine("")
	var orderLog []string
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	log := func(name string) {
		<-mu
		orderLog = append(orderLog, name)
		mu <- struct{}{}
	}
	mk := func(name string, deps ...string) {
		target := filepath.Join(dir, name)
		e.Register(&Task{
			Name:     name,
			TaskDeps: deps,
			Targets:  []string{target},
			Action: func() error {
				log(name)
				return os.WriteFile(target, []byte(name), 0o644)
			},
		})
	}
	mk("a")
	mk("b", "a")
	mk("c", "b")
	mk("d", "a")
	if err := e.RunMany([]string{"c", "d"}, 4); err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, name := range orderLog {
		pos[name] = i
	}
	if !(pos["a"] < pos["b"] && pos["b"] < pos["c"] && pos["a"] < pos["d"]) {
		t.Errorf("dependency order violated: %v", orderLog)
	}
}

func TestRunManyActuallyParallel(t *testing.T) {
	e, _ := NewEngine("")
	var inFlight, peak int32
	dir := t.TempDir()
	for i := 0; i < 4; i++ {
		target := filepath.Join(dir, fmt.Sprintf("o%d", i))
		e.Register(&Task{
			Name:    fmt.Sprintf("t%d", i),
			Targets: []string{target},
			Action: func() error {
				cur := atomic.AddInt32(&inFlight, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
						break
					}
				}
				time.Sleep(20 * time.Millisecond)
				atomic.AddInt32(&inFlight, -1)
				return os.WriteFile(target, []byte("x"), 0o644)
			},
		})
	}
	if err := e.RunMany([]string{"t0", "t1", "t2", "t3"}, 4); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("peak concurrency %d; independent tasks should overlap", peak)
	}
}

func TestRunManyErrorStopsScheduling(t *testing.T) {
	e, _ := NewEngine("")
	ran := int32(0)
	e.Register(&Task{Name: "bad", Action: func() error {
		return fmt.Errorf("boom")
	}})
	e.Register(&Task{Name: "after", TaskDeps: []string{"bad"}, Action: func() error {
		atomic.AddInt32(&ran, 1)
		return nil
	}})
	err := e.RunMany([]string{"after"}, 2)
	if err == nil {
		t.Fatal("expected error")
	}
	if atomic.LoadInt32(&ran) != 0 {
		t.Error("dependent task ran after failure")
	}
}

func TestRunManyCycleAndUnknown(t *testing.T) {
	e, _ := NewEngine("")
	e.Register(&Task{Name: "a", TaskDeps: []string{"b"}})
	e.Register(&Task{Name: "b", TaskDeps: []string{"a"}})
	if err := e.RunMany([]string{"a"}, 2); err == nil {
		t.Error("expected cycle error")
	}
	if err := e.RunMany([]string{"ghost"}, 2); err == nil {
		t.Error("expected unknown task error")
	}
}

func TestRunManyEmpty(t *testing.T) {
	e, _ := NewEngine("")
	if err := e.RunMany(nil, 4); err != nil {
		t.Errorf("empty RunMany: %v", err)
	}
}

func TestRunManyCascade(t *testing.T) {
	// Upstream execution forces downstream re-run, same as serial Run.
	dir := t.TempDir()
	db := filepath.Join(dir, "db.json")
	dep := filepath.Join(dir, "dep")
	os.WriteFile(dep, []byte("v1"), 0o644)

	counts := map[string]*int32{"p": new(int32), "c": new(int32)}
	build := func() *Engine {
		e, _ := NewEngine(db)
		pt := filepath.Join(dir, "p.out")
		ct := filepath.Join(dir, "c.out")
		e.Register(&Task{Name: "p", FileDeps: []string{dep}, Targets: []string{pt}, Action: func() error {
			atomic.AddInt32(counts["p"], 1)
			return os.WriteFile(pt, []byte("p"), 0o644)
		}})
		e.Register(&Task{Name: "c", TaskDeps: []string{"p"}, FileDeps: []string{pt}, Targets: []string{ct}, Action: func() error {
			atomic.AddInt32(counts["c"], 1)
			return os.WriteFile(ct, []byte("c"), 0o644)
		}})
		if err := e.RunMany([]string{"c"}, 4); err != nil {
			t.Fatal(err)
		}
		return e
	}
	build()
	os.WriteFile(dep, []byte("v2"), 0o644)
	build()
	if *counts["p"] != 2 || *counts["c"] != 2 {
		t.Errorf("cascade counts: p=%d c=%d", *counts["p"], *counts["c"])
	}
}

func TestRunManySharedParentBuildsOnce(t *testing.T) {
	// N children claimed concurrently share one missing parent: the
	// scheduler must execute the parent exactly once, never per-child —
	// the invariant `marshal launch -j N` relies on when every job of a
	// workload depends on the same base-image build.
	dir := t.TempDir()
	e, _ := NewEngine(filepath.Join(dir, "db.json"))
	var parentRuns int32
	parentTarget := filepath.Join(dir, "base.out")
	e.Register(&Task{
		Name:    "base",
		Targets: []string{parentTarget},
		Action: func() error {
			atomic.AddInt32(&parentRuns, 1)
			// Stay in flight long enough that every child had the
			// chance to claim it again if claiming were broken.
			time.Sleep(20 * time.Millisecond)
			return os.WriteFile(parentTarget, []byte("base"), 0o644)
		},
	})
	const n = 8
	names := make([]string, n)
	for i := 0; i < n; i++ {
		target := filepath.Join(dir, fmt.Sprintf("child%d.out", i))
		names[i] = fmt.Sprintf("child%d", i)
		e.Register(&Task{
			Name:     names[i],
			TaskDeps: []string{"base"},
			FileDeps: []string{parentTarget},
			Targets:  []string{target},
			Action:   func() error { return os.WriteFile(target, []byte("c"), 0o644) },
		})
	}
	if err := e.RunMany(names, n); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&parentRuns); got != 1 {
		t.Errorf("shared parent executed %d times, want exactly 1", got)
	}
	if len(e.Executed) != n+1 {
		t.Errorf("executed %v", e.Executed)
	}
}
