// Microbenchmarks (google-benchmark) of the substrates every experiment
// rests on: CRC, varints, time-series encoders, the sliding window, the
// histogram, the event queue and the Petri engine.

#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/varint.h"
#include "metrics/histogram.h"
#include "nbraft/sliding_window.h"
#include "petri/petri_net.h"
#include "sim/simulator.h"
#include "tsdb/encoding.h"

namespace {

using namespace nbraft;

std::string RandomPayload(size_t len, uint64_t seed) {
  Rng rng(seed);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.Next());
  return out;
}

void BM_Crc32c(benchmark::State& state) {
  const std::string data =
      RandomPayload(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

void BM_GorillaEncodeValues(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values;
  double v = 20.0;
  for (int i = 0; i < 1024; ++i) {
    v += rng.NextGaussian(0, 0.1);
    values.push_back(v);
  }
  for (auto _ : state) {
    std::string out;
    tsdb::EncodeValues(values, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_GorillaEncodeValues);

void BM_DeltaOfDeltaTimestamps(benchmark::State& state) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 1024; ++i) ts.push_back(1600000000000 + i * 1000);
  for (auto _ : state) {
    std::string out;
    tsdb::EncodeTimestamps(ts, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_DeltaOfDeltaTimestamps);

void BM_SlidingWindowInsertFlush(benchmark::State& state) {
  for (auto _ : state) {
    raft::SlidingWindow w(1024);
    // Insert 2..512 out of order, then flush with entry 1.
    for (storage::LogIndex i = 512; i >= 2; --i) {
      w.Insert(storage::MakeEntry(i, 1, 1));
    }
    benchmark::DoNotOptimize(w.TakeFlushablePrefix(1, 1));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_SlidingWindowInsertFlush);

void BM_HistogramRecord(benchmark::State& state) {
  metrics::Histogram h;
  Rng rng(6);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.NextBounded(1'000'000'000)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.After(i, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_PetriProducerConsumer(benchmark::State& state) {
  for (auto _ : state) {
    petri::PetriNet net(1);
    const auto idle = net.AddPlace("idle", 1);
    const auto queue = net.AddPlace("queue");
    const auto done = net.AddPlace("done");
    net.AddTransition("produce", {{idle, 1}}, {{queue, 1}, {idle, 1}},
                      petri::PetriNet::FixedDelay(Micros(10)));
    net.AddTransition("consume", {{queue, 1}}, {{done, 1}},
                      petri::PetriNet::FixedDelay(Micros(10)));
    net.Run(Millis(10));
    benchmark::DoNotOptimize(net.Tokens(done));
  }
}
BENCHMARK(BM_PetriProducerConsumer);

void BM_VarintRoundTrip(benchmark::State& state) {
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1024; ++i) values.push_back(rng.Next() >> (i % 64));
  for (auto _ : state) {
    std::string buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    std::string_view in(buf);
    uint64_t out = 0;
    while (GetVarint64(&in, &out)) benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_VarintRoundTrip);

}  // namespace

BENCHMARK_MAIN();
