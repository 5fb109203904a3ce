#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace pb {

double Samples::pct(double p) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kGenLag: return "gen.lag";
    case SpanName::kFleetSubmit: return "fleet.submit";
    case SpanName::kFleetService: return "fleet.service";
    case SpanName::kSweep: return "sweep";
    case SpanName::kEngineQuote: return "quote_engine.quote";
    case SpanName::kEngineDeclare: return "quote_engine.declare_cost";
    case SpanName::kEngineQuoteBatch: return "quote_engine.quote_batch";
    case SpanName::kEngineDeclareCosts: return "quote_engine.declare_costs";
    case SpanName::kEngineQuoteAll: return "quote_engine.quote_all";
    case SpanName::kPricerPrice: return "pricer.price";
    case SpanName::kPricerPriceWithSpts: return "pricer.price_with_spts";
    case SpanName::kCoreVcgFast: return "core.vcg_payments_fast";
    case SpanName::kSpathDijkstra: return "spath.dijkstra_node_into";
    case SpanName::kSpathSptMulti: return "spath.spt_multi_into";
  }
  return "?";
}

std::uint32_t Tracer::add(SpanName name, std::uint64_t request,
                          std::uint32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (!on_) return 0;
  spans_.push_back({start_ns, end_ns, request, parent, name});
  return static_cast<std::uint32_t>(spans_.size());
}

Samples Tracer::durations_us(SpanName name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool Tracer::write_csv(const std::string& path, std::int64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,request,parent,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%u,%lld,%lld\n", to_string(s.name),
                 static_cast<unsigned long long>(s.request), s.parent,
                 static_cast<long long>(s.start_ns - origin_ns),
                 static_cast<long long>(s.end_ns - origin_ns));
  }
  return std::fclose(f) == 0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Host probe_host() {
  Host h;
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  // Same runtime test the spath kernels dispatch on (spath/workspace.cpp).
  h.avx512 = __builtin_cpu_supports("avx512f");
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = PERFBENCH_COMPILER;
  return h;
}

const Metric* find_metric(const std::vector<Metric>& metrics,
                          const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string fmt_double(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

}  // namespace pb
