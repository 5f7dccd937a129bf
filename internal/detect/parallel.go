package detect

import (
	"errors"
	"runtime"
	"sync"

	"wiclean/internal/action"
	"wiclean/internal/mining"
	"wiclean/internal/pattern"
)

// Task names one (pattern, window) detection unit. The paper processes
// these units in parallel ("using an efficient outer-join based algorithm
// ... parallelly processed", §5).
type Task struct {
	Pattern pattern.Pattern
	Window  action.Window
}

// FindAll runs FindPartials for every task with the given worker count
// (<= 0 means GOMAXPROCS) and returns reports in task order. When tasks
// fail, every failure is reported (joined with errors.Join, one entry per
// failed task) and the successful reports are still returned — failed
// slots are nil — so a caller can use the partial results or surface the
// complete error list rather than just the first. A store whose history
// fetch failed (mining.FetchFailure) fails every later task the same way:
// once it has, FindAll dispatches no more tasks and returns that failure
// alone, and the slots of the tasks it did not run are nil too.
func (d *Detector) FindAll(tasks []Task, workers int) ([]*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reports := make([]*Report, len(tasks))
	errs := make([]error, len(tasks))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker gets its own detector so engine stats do not
			// race; they share the read-only store and the (atomic)
			// metrics registry.
			local := New(d.store).WithObs(d.obs)
			for i := range jobs {
				reports[i], errs[i] = local.FindPartials(tasks[i].Pattern, tasks[i].Window)
			}
		}()
	}
	for i := range tasks {
		if mining.FetchFailure(d.store) != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if err := mining.FetchFailure(d.store); err != nil {
		return reports, err
	}
	return reports, errors.Join(errs...)
}

// TotalPartials sums the signaled potential errors across reports — the
// headline counts of §6.3 (3743 soccer / 2554 cinema / 1125 politics).
func TotalPartials(reports []*Report) int {
	n := 0
	for _, r := range reports {
		if r != nil {
			n += len(r.Partials)
		}
	}
	return n
}
