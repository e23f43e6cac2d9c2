// PANDA-driven deployment: describe the experiment as a topology file
// (exactly how the paper's evaluations were launched), run it, reconfigure,
// and emit the reconfigured deployment as a new topology file.
//
// Usage: ./build/examples/panda_deploy [topology-file]
// Without an argument a built-in sample topology is used.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "croc/croc.hpp"
#include "panda/panda.hpp"

using namespace greenps;

namespace {

constexpr const char* kSampleTopology = R"(# sample topology: 7 brokers, fan-out-2 tree
broker B0 bw=80 start=0
broker B1 bw=80 start=1
broker B2 bw=80 start=1
broker B3 bw=40 start=2
broker B4 bw=40 start=2
broker B5 bw=40 start=2
broker B6 bw=40 start=2
link B0 B1
link B0 B2
link B1 B3
link B1 B4
link B2 B5
link B2 B6
publisher P0 broker=B3 symbol=YHOO rate=2.0 start=10
publisher P1 broker=B6 symbol=GOOG rate=2.0 start=10
subscriber C0 broker=B5 start=12 filter=[class,=,'STOCK'],[symbol,=,'YHOO']
subscriber C1 broker=B4 start=12 filter=[class,=,'STOCK'],[symbol,=,'YHOO'],[volume,>,500000]
subscriber C2 broker=B0 start=12 filter=[class,=,'STOCK'],[symbol,=,'GOOG']
subscriber C3 broker=B3 start=12 filter=[class,=,'STOCK'],[symbol,=,'GOOG'],[low,<,150.0]
subscriber C4 broker=B6 start=12 filter=[class,=,'STOCK'],[symbol,=,'YHOO']
subscriber C5 broker=B2 start=12 filter=[class,=,'STOCK'],[symbol,=,'GOOG']
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kSampleTopology;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open '%s'\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  PandaTopology topo;
  try {
    topo = parse_panda(text);
  } catch (const PandaError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (const std::string bad = topo.first_ordering_violation(); !bad.empty()) {
    std::fprintf(stderr, "warning: client '%s' starts before all brokers are up\n",
                 bad.c_str());
  }
  std::printf("parsed topology: %zu brokers, %zu links, %zu publishers, %zu subscribers\n",
              topo.deployment.topology.broker_count(),
              topo.deployment.topology.link_count(), topo.deployment.publishers.size(),
              topo.deployment.subscribers.size());

  Simulation sim(std::move(topo.deployment),
                 StockQuoteGenerator(StockQuoteGenerator::Config{}, Rng(7)));
  sim.run(60.0);
  const SimSummary before = sim.summarize();
  std::printf("before: %zu brokers, %.1f msg/s system, %.2f hops\n",
              before.allocated_brokers, before.system_msg_rate, before.avg_hop_count);

  Croc croc(CrocConfig{});
  const auto report = croc.reconfigure(sim, sim.deployment().topology.brokers().front());
  if (!report.success) {
    std::printf("reconfiguration failed\n");
    return 1;
  }
  ApplyResult applied = apply_plan_transactional(sim.deployment(), report.plan);
  if (!applied.success) {
    std::printf("apply rolled back: %s\n", applied.detail.c_str());
    return 1;
  }
  sim.redeploy(std::move(applied.deployment));
  sim.run(60.0);
  const SimSummary after = sim.summarize();
  std::printf("after:  %zu brokers, %.1f msg/s system, %.2f hops\n\n",
              after.allocated_brokers, after.system_msg_rate, after.avg_hop_count);

  std::printf("reconfigured topology file:\n%s", write_panda(sim.deployment()).c_str());
  return 0;
}
