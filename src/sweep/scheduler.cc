#include "sweep/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

namespace nbraft::sweep {

namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

SweepResult RunOne(const SweepTask& task, size_t index, uint64_t sweep_seed,
                   int worker) {
  SweepResult result;
  result.task_index = index;
  result.name = task.name;
  result.worker = worker;
  const auto start = std::chrono::steady_clock::now();
  try {
    result.output = task.run(TaskSeed(sweep_seed, index));
    result.completed = true;
  } catch (const std::exception& e) {
    result.output = TaskOutput{};
    result.error = e.what();
  } catch (...) {
    result.output = TaskOutput{};
    result.error = "non-standard exception";
  }
  result.wall_ms = WallMs(start);
  return result;
}

}  // namespace

int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int WorkersFromEnv(int fallback) {
  const char* text = std::getenv("NBRAFT_SWEEP_WORKERS");
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v <= 0 || v > 1024) return fallback;
  return static_cast<int>(v);
}

SweepScheduler::SweepScheduler(SweepOptions options)
    : options_(options) {
  options_.workers = ResolveWorkers(options_.workers);
}

SweepReport SweepScheduler::Run(const std::vector<SweepTask>& tasks) {
  const auto start = std::chrono::steady_clock::now();
  const int workers =
      static_cast<int>(std::min<size_t>(
          static_cast<size_t>(options_.workers), std::max<size_t>(tasks.size(), 1)));
  std::vector<SweepResult> results(tasks.size());

  if (workers <= 1) {
    // The serial oracle: same thread, index order, no synchronization.
    for (size_t i = 0; i < tasks.size(); ++i) {
      results[i] = RunOne(tasks[i], i, options_.sweep_seed, /*worker=*/0);
    }
  } else {
    // One shared next-index: each worker claims the lowest unclaimed task.
    // Tasks are whole simulations (milliseconds to seconds each), so one
    // atomic increment per task balances load as well as any deque split.
    std::atomic<size_t> next{0};
    auto worker_loop = [&](int w) {
      for (size_t index = next.fetch_add(1); index < tasks.size();
           index = next.fetch_add(1)) {
        // Each task writes only its own pre-sized slot: no result lock.
        results[index] = RunOne(tasks[index], index, options_.sweep_seed, w);
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) threads.emplace_back(worker_loop, w);
    for (std::thread& t : threads) t.join();
  }

  SweepReport report = MergeResults(options_.sweep_seed, std::move(results));
  report.workers_used = workers;
  report.wall_ms = WallMs(start);
  return report;
}

}  // namespace nbraft::sweep
