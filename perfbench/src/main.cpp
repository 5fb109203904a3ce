// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload fleet_zipf|engine_churn|cold_sweep
//                    --seed N --seconds S --trace 0|1
//                    [--trace-dir DIR] [--tamper]
//   perfbench_driver --self-test
//
// --trace 0 measures the end-to-end metrics (set-up repeated kSetups times
// for setup_s). --trace 1 measures the workload twice for half the time
// each, untraced and then traced, prints both end-to-end tables with their difference (the
// tracing overhead), and reports the per-layer metrics of the traced run.
// Every run ends with the correctness gate; a divergence exits 1 and a
// refused measurement exits 3, both without a result line. The last line
// of a successful run is the JSON result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "gate.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;

constexpr int kSetups = 9;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py cross-checks every result).
constexpr MetricDef kEndToEnd[] = {
    {"quote_p50_us", "us"}, {"quote_p99_us", "us"},  {"ops_per_s", "1/s"},
    {"sweep_p50_ms", "ms"}, {"cpu_us_per_op", "us"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not exercise reports 0 (README: "Per-layer").
constexpr MetricDef kPerLayer[] = {
    {"gen.lag_p50_us", "us"},
    {"gen.lag_p99_us", "us"},
    {"fleet.submit_p50_us", "us"},
    {"fleet.service_p50_us", "us"},
    {"fleet.service_p99_us", "us"},
    {"fleet.self_p50_us", "us"},
    {"fleet.steal_runs", "count"},
    {"fleet.steal_requests", "count"},
    {"fleet.coalesced_frac", "ratio"},
    {"fleet.shed", "count"},
    {"fleet.expired", "count"},
    {"fleet.throttled", "count"},
    {"quote_engine.quote_p50_us", "us"},
    {"quote_engine.quote_p99_us", "us"},
    {"quote_engine.declare_p50_us", "us"},
    {"quote_engine.hit_rate", "ratio"},
    {"quote_engine.retained_frac", "ratio"},
    {"quote_engine.warm_priced_frac", "ratio"},
    {"quote_engine.warm_fallbacks", "count"},
    {"quote_engine.snapshot_rebases", "count"},
    {"quote_engine.declare_costs_ms", "ms"},
    {"quote_engine.quote_all_ms", "ms"},
    {"pricer.price_p50_us", "us"},
    {"pricer.price_with_spts_p50_us", "us"},
    {"core.vcg_payments_fast_p50_us", "us"},
    {"spath.dijkstra_node_into_p50_us", "us"},
    {"spath.spt_multi_into_ms", "ms"},
    {"trace.quote_p50_delta_us", "us"},
    {"trace.ops_per_s_delta_frac", "ratio"},
    {"trace.cpu_us_per_op_delta_us", "us"},
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string host_json(const Host& h) {
  return "{\"nproc\": " + std::to_string(h.nproc) +
         ", \"cpu_model\": " + json_str(h.cpu_model) +
         ", \"avx512\": " + (h.avx512 ? "true" : "false") +
         ", \"build_type\": " + json_str(h.build_type) +
         ", \"compiler\": " + json_str(h.compiler) + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics,
                         bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i != 0) out += ", ";
    out += json_str(m.name) + ": {\"value\": " + fmt_double(m.value) +
           ", \"unit\": " + json_str(m.unit);
    if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

/// Orders `got` as `defs`, filling metrics a workload does not exercise
/// with 0 when `fill` (per-layer) and refusing them otherwise.
std::vector<Metric> canonical(const std::vector<Metric>& got,
                              const MetricDef* defs, std::size_t count,
                              bool fill) {
  for (const Metric& m : got) {
    bool known = false;
    for (std::size_t i = 0; i < count; ++i) {
      if (m.name == defs[i].name) {
        known = m.unit == defs[i].unit;
        break;
      }
    }
    if (!known) throw RunRefused("metric " + m.name + " [" + m.unit + "] is not declared");
    if (!std::isfinite(m.value)) throw RunRefused("metric " + m.name + " is not finite");
  }
  std::vector<Metric> out;
  for (std::size_t i = 0; i < count; ++i) {
    const Metric* m = find_metric(got, defs[i].name);
    if (m != nullptr) {
      out.push_back(*m);
    } else if (fill) {
      out.push_back({defs[i].name, 0.0, defs[i].unit, 0});
    } else {
      throw RunRefused(std::string("metric ") + defs[i].name + " was not measured");
    }
  }
  return out;
}

void print_phase(const char* title, const PhaseResult& r,
                 const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto& [status, n] : r.failures) {
    std::printf("    %-20s %llu\n", status.c_str(),
                static_cast<unsigned long long>(n));
  }
  for (const std::string& note : r.notes) std::printf("  note: %s\n", note.c_str());
}

bool parse(int argc, char** argv, Options& opts, bool& self_test) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--tamper") {
      opts.tamper = true;
    } else if (arg == "--workload" && (v = value())) {
      opts.workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-dir" && (v = value())) {
      opts.trace_dir = v;
    } else {
      return false;
    }
  }
  return self_test || (opts.seconds > 0.0 && opts.seconds <= 600.0);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool self_test = false;
  if (!parse(argc, argv, opts, self_test)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR] [--tamper] | --self-test\n");
    return 2;
  }
  if (self_test) {
    const std::string err = gate_self_test();
    std::printf("gate self-test: %s\n", err.empty() ? "ok" : err.c_str());
    return err.empty() ? 0 : 1;
  }
  PhaseResult (*run)(const Options&, bool, int) = nullptr;
  if (opts.workload == "fleet_zipf") {
    run = &run_fleet_zipf;
  } else if (opts.workload == "engine_churn") {
    run = &run_engine_churn;
  } else if (opts.workload == "cold_sweep") {
    run = &run_cold_sweep;
  } else {
    std::fprintf(stderr, "unknown workload '%s' (fleet_zipf | engine_churn | "
                 "cold_sweep)\n", opts.workload.c_str());
    return 2;
  }

  const Host host = probe_host();
  const std::size_t n_e2e = std::size(kEndToEnd);
  const std::size_t n_layer = std::size(kPerLayer);
  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              fmt_double(opts.seconds).c_str(), opts.trace ? 1 : 0);
  std::printf("host %s\n", host_json(host).c_str());
  std::fflush(stdout);
  try {
    PhaseResult result;
    std::vector<Metric> reported;
    std::string extra;
    if (!opts.trace) {
      result = run(opts, false, kSetups);
      reported = canonical(result.e2e, kEndToEnd, n_e2e, false);
      for (const Metric& m : reported) {
        if (!(m.value > 0.0)) {
          throw RunRefused("end-to-end metric " + m.name + " read 0");
        }
      }
      print_phase("end-to-end (untraced)", result, reported);
    } else {
      // Half the run untraced, half traced, so that a traced run takes
      // as long as an untraced one.
      Options half = opts;
      half.seconds = opts.seconds / 2;
      const PhaseResult plain = run(half, false, 1);
      result = run(half, true, 1);
      const auto e2e_plain = canonical(plain.e2e, kEndToEnd, n_e2e, false);
      const auto e2e_traced = canonical(result.e2e, kEndToEnd, n_e2e, false);
      std::printf("\ntracing overhead (same workload and seed)\n");
      std::printf("  %-16s %16s %16s %14s %9s\n", "metric", "untraced",
                  "traced", "diff", "diff%");
      for (std::size_t i = 0; i < n_e2e; ++i) {
        const double a = e2e_plain[i].value;
        const double b = e2e_traced[i].value;
        std::printf("  %-16s %16.4f %16.4f %14.4f %8.2f%%\n",
                    e2e_plain[i].name.c_str(), a, b, b - a,
                    a != 0.0 ? 100.0 * (b - a) / a : 0.0);
      }
      const auto value = [](const std::vector<Metric>& ms, const char* name) {
        return find_metric(ms, name)->value;
      };
      result.layer.push_back({"trace.quote_p50_delta_us",
                              value(e2e_traced, "quote_p50_us") -
                                  value(e2e_plain, "quote_p50_us"),
                              "us", 0});
      result.layer.push_back({"trace.ops_per_s_delta_frac",
                              value(e2e_traced, "ops_per_s") /
                                      value(e2e_plain, "ops_per_s") -
                                  1.0,
                              "ratio", 0});
      result.layer.push_back({"trace.cpu_us_per_op_delta_us",
                              value(e2e_traced, "cpu_us_per_op") -
                                  value(e2e_plain, "cpu_us_per_op"),
                              "us", 0});
      reported = canonical(result.layer, kPerLayer, n_layer, true);
      print_phase("end-to-end (untraced)", plain, e2e_plain);
      print_phase("per-layer (traced)", result, reported);
      extra = ", \"untraced\": " + metrics_json(e2e_plain, true) +
              ", \"traced\": " + metrics_json(e2e_traced, true);
      result.attempted += plain.attempted;
      result.failed += plain.failed;
    }
    std::string failures = "{";
    for (std::size_t i = 0; i < result.failures.size(); ++i) {
      if (i != 0) failures += ", ";
      failures += json_str(result.failures[i].first) + ": " +
                  std::to_string(result.failures[i].second);
    }
    failures += "}";
    std::printf("record {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"host\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"failures\": %s, \"metrics\": %s%s}\n",
                json_str(opts.workload).c_str(),
                static_cast<unsigned long long>(opts.seed),
                fmt_double(opts.seconds).c_str(), opts.trace ? 1 : 0,
                host_json(host).c_str(),
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                failures.c_str(), metrics_json(reported, true).c_str(),
                extra.c_str());
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics_json(reported, false).c_str());
    return 0;
  } catch (const GateFailure& e) {
    std::fprintf(stderr,
                 "perfbench: correctness gate FAILED on workload %s seed "
                 "%llu: %s\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), e.what());
    return 1;
  } catch (const RunRefused& e) {
    std::fprintf(stderr, "perfbench: run refused on workload %s seed %llu: %s\n",
                 opts.workload.c_str(),
                 static_cast<unsigned long long>(opts.seed), e.what());
    return 3;
  }
}
