// capman_perfbench: the repository's end-to-end benchmark program.
//
//   capman_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//   capman_perfbench --describe     (workload and metric catalogue as JSON)
//
// --trace 0 measures host time with nothing attached: the workload is set
// up repeatedly (median = setup_s), then repeated until S seconds are
// spent (median per-repetition rate = sim_s_per_s). Every repetition's
// output digests must equal the first repetition's. --trace 1 runs the
// layer ledger instead. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 after a run (whatever its outcome), 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "ledger.h"
#include "stats.h"
#include "workloads.h"

using namespace perfbench;

namespace {

// Set-up takes milliseconds, so it is repeated and the median reported:
// at least kMinSetups times, then on until kSetupBudgetS is spent or
// kMaxSetups are done.
constexpr std::size_t kMinSetups = 9;
constexpr std::size_t kMaxSetups = 1001;
constexpr double kSetupBudgetS = 1.0;

struct Options {
  WorkloadId workload = WorkloadId::kPaperCycle;
  bool workload_given = false;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
};

int usage(const char* why) {
  std::cerr << "error: " << why << "\n"
            << "usage: capman_perfbench --workload <";
  const char* sep = "";
  for (const WorkloadId id : all_workloads()) {
    std::cerr << sep << to_string(id);
    sep = "|";
  }
  std::cerr << "> [--seed N] [--seconds S] [--trace 0|1]\n";
  return 2;
}

bool parse_u64(std::string_view token, std::uint64_t& out) {
  const auto result =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return !token.empty() && result.ec == std::errc{} &&
         result.ptr == token.data() + token.size();
}

/// Parses argv into `options`; returns an error message or nullptr.
const char* parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return "every flag takes a value";
    const std::string_view value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      const auto id = parse_workload(value);
      if (!id) return "unknown workload";
      options.workload = *id;
      options.workload_given = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, options.seed)) return "--seed needs an integer";
    } else if (flag == "--seconds") {
      if (!parse_u64(value, number) || number == 0 || number > 3600) {
        return "--seconds needs an integer in [1, 3600]";
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return "--trace takes 0 or 1";
      options.trace = value == "1";
    } else {
      return "unknown flag";
    }
  }
  return options.workload_given ? nullptr : "--workload is required";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricSpec>& specs,
                  const MetricValues& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  const char* sep = "";
  for (const MetricSpec& spec : specs) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", values.get(spec.name));
    json += sep;
    json += "\"" + spec.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + spec.unit + "\"}";
    sep = ", ";
  }
  json += "}}";
  std::cout << json << std::endl;
}

int measure(Workload& workload, const Options& options) {
  std::vector<double> setup_s;
  const double setup_start = now_s();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          now_s() - setup_start < kSetupBudgetS)) {
    const double start = now_s();
    workload.setup();
    setup_s.push_back(now_s() - start);
  }

  const double deadline = now_s() + options.seconds;
  std::vector<double> rates;
  std::vector<double> rep_s;
  std::vector<std::uint64_t> first;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool sane = true;
  // Start another repetition only while it is expected to end in time.
  while (rates.empty() || now_s() + median(rep_s) <= deadline) {
    const double start = now_s();
    const RepOutcome rep = workload.run_once();
    const double host_s = now_s() - start;
    rep_s.push_back(host_s);
    rates.push_back(rep.sim_s / host_s);
    attempted += rep.cycles;
    sane = sane && rep.sane;
    if (first.empty()) first = rep.digests;
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < rep.digests.size(); ++i) {
      if (i >= first.size() || rep.digests[i] != first[i]) {
        mismatched += rep.cycles_per_digest;
      }
    }
    // A cycle that threw also leaves a mismatching digest: count it once.
    failed += std::max(rep.lost, mismatched);
  }

  workload.report(std::cout);
  std::cout << "repetitions " << rates.size() << ", rep host s median "
            << median(rep_s) << ", sim_s_per_s min " << quantile(rates, 0.0)
            << " max " << quantile(rates, 1.0) << "\n";

  MetricValues values;
  values.set("sim_s_per_s", median(rates));
  values.set("setup_s", median(setup_s));
  values.set("peak_rss_mib", peak_rss_mib());
  print_result(sane && failed == 0, attempted, failed, end_to_end_metrics(),
               values);
  return 0;
}

int trace(Workload& workload) {
  workload.setup();
  const TraceOutcome outcome = workload.trace(std::cout);
  for (const MetricSpec& spec : per_layer_metrics()) {
    std::cout << "  " << spec.name << " = " << outcome.metrics.get(spec.name)
              << " " << spec.unit << "\n";
  }
  print_result(outcome.failed == 0 && outcome.cycles > 0,
               std::max<std::uint64_t>(outcome.cycles, 1), outcome.failed,
               per_layer_metrics(), outcome.metrics);
  return 0;
}

/// The catalogue as JSON, for checking BENCHMARK.json against the code.
void describe() {
  std::cout << "{\"workloads\": [";
  const char* sep = "";
  for (const WorkloadId id : all_workloads()) {
    std::cout << sep << "\"" << to_string(id) << "\"";
    sep = ", ";
  }
  for (const auto& [key, specs] :
       {std::pair{"end_to_end", &end_to_end_metrics()},
        std::pair{"per_layer", &per_layer_metrics()}}) {
    std::cout << "], \"" << key << "\": [";
    sep = "";
    for (const MetricSpec& spec : *specs) {
      std::cout << sep << "{\"name\": \"" << spec.name << "\", \"unit\": \""
                << spec.unit << "\", \"better\": \"" << spec.better << "\"}";
      sep = ", ";
    }
  }
  std::cout << "]}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view{argv[1]} == "--describe") {
    describe();
    return 0;
  }
  Options options;
  if (const char* error = parse(argc, argv, options)) return usage(error);
  try {
    auto workload = make_workload(options.workload, options.seed);
    return options.trace ? trace(*workload) : measure(*workload, options);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
