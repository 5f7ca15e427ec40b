#include "exec/parallel.h"

#include <algorithm>
#include <thread>

#include "exec/executor.h"

namespace pump::exec {

void ParallelFor(std::size_t workers,
                 const std::function<void(std::size_t)>& fn) {
  // One worker runs inline without starting the process-wide pool, so a
  // single-worker phase (a one-morsel build inside a verifier model, say)
  // creates no threads.
  if (workers <= 1) {
    fn(0);
    return;
  }
  Executor::Default().Run(workers, fn);
}

std::size_t DefaultWorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace pump::exec
