// Fig. 18: throughput and latency vs the number of dispatchers (N_csm)
// per follower, 4 KB requests.
//
// Paper shapes: few dispatchers queue requests up (high latency, low
// throughput); more dispatchers raise concurrency, and the trends mirror
// the client-concurrency sweep — NB-Raft performs better at high
// dispatcher counts.

#include "bench/bench_util.h"

using namespace nbraft;

int main(int argc, char** argv) {
  const bench::BenchMode mode = bench::ParseMode(argc, argv);
  const std::vector<double> dispatchers =
      mode.full ? std::vector<double>{1, 4, 16, 64, 256, 512, 1024}
                : (mode.quick ? std::vector<double>{4, 64}
                              : std::vector<double>{1, 4, 16, 64, 256, 1024});

  const auto results = bench::RunSweep(
      mode, dispatchers, bench::AllProtocols(),
      [](double x, harness::ClusterConfig* c) {
        c->num_nodes = 3;
        c->num_clients = 256;
        c->payload_size = 4096;
        c->client_think = Micros(5);
        c->dispatchers = static_cast<int>(x);
      });

  bench::PrintTable("Fig. 18(a) — varying dispatcher number", "#dispatchers",
                    dispatchers, bench::AllProtocols(), results,
                    /*latency=*/false);
  bench::PrintTable("Fig. 18(b) — varying dispatcher number", "#dispatchers",
                    dispatchers, bench::AllProtocols(), results,
                    /*latency=*/true);

  return 0;
}
