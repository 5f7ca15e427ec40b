// Morsel-dispatch microbenchmark: the GPU batch-size ablation of
// Sec. 6.1 (batching amortizes dispatch latency; the paper tunes the
// batch size empirically). Claim throughput is micro_parallel's
// morsel_claiming_ms.

#include <atomic>

#include "benchmark/benchmark.h"
#include "exec/het_scheduler.h"

namespace pump {
namespace {

void BM_BatchSizeAblation(benchmark::State& state) {
  // Emulate a fixed per-dispatch latency (kernel launch) plus linear work:
  // larger batches amortize the launch but coarsen load balancing.
  const std::size_t batch_morsels = state.range(0);
  constexpr std::size_t kTotal = 2'000'000;
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    auto work = [&sink](std::size_t begin, std::size_t end) {
      // "Launch" cost: a few hundred wasted iterations per dispatch.
      std::uint64_t x = 0;
      for (int i = 0; i < 400; ++i) x += i;
      x += end - begin;
      sink.fetch_add(x, std::memory_order_relaxed);
    };
    std::vector<exec::ProcessorGroup> groups;
    groups.push_back({"GPU", 1, batch_morsels, work});
    groups.push_back({"CPU", 2, 1, work});
    auto stats = exec::RunHeterogeneous(kTotal, 10'000, std::move(groups));
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * kTotal);
}
BENCHMARK(BM_BatchSizeAblation)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace pump
