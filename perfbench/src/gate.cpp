#include "gate.hpp"

#include <bit>
#include <cstdio>

#include "core/fast_payment.hpp"
#include "graph/generators.hpp"
#include "mech/invariants.hpp"
#include "svc/quote_engine.hpp"

namespace pb {

using tc::core::PaymentResult;

namespace {

std::string format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

}  // namespace

tc::svc::EngineConfig oracle_config() {
  tc::svc::EngineConfig c;
  c.incremental_invalidation = false;
  c.cow_snapshots = false;
  c.warm_spt_cache = false;
  return c;
}

std::string diff_quote(const std::optional<PaymentResult>& got,
                       std::uint64_t got_epoch,
                       const std::optional<PaymentResult>& want,
                       std::uint64_t want_epoch) {
  if (got_epoch != want_epoch) {
    return format("epoch %.0f vs oracle %.0f", static_cast<double>(got_epoch),
                  static_cast<double>(want_epoch));
  }
  if (got.has_value() != want.has_value()) {
    return got ? "route served where the oracle has none"
               : "no route served where the oracle has one";
  }
  if (!got) return {};
  if (got->path != want->path) return "route differs from the oracle's";
  if (got->payments.size() != want->payments.size()) {
    return "payment vector length differs from the oracle's";
  }
  for (std::size_t k = 0; k < got->payments.size(); ++k) {
    if (got->payments[k] != want->payments[k]) {
      return "node " + std::to_string(k) + ": " +
             format("payment %.17g vs oracle %.17g", got->payments[k],
                    want->payments[k]);
    }
  }
  return {};
}

std::string check_against_kernel(const tc::graph::NodeGraph& g,
                                 tc::graph::NodeId source,
                                 tc::graph::NodeId target,
                                 const std::optional<PaymentResult>& got) {
  const PaymentResult want = tc::core::vcg_payments_fast(g, source, target);
  std::optional<PaymentResult> want_opt;
  if (want.connected()) want_opt = want;
  // One-shot kernel results carry no epoch; compare routes and payments.
  const std::string diff = diff_quote(got, 0, want_opt, 0);
  if (!diff.empty()) return "vs core::vcg_payments_fast: " + diff;
  if (!got) return {};
  tc::mech::UnicastOutcome outcome;
  outcome.path = got->path;
  outcome.path_cost = got->path_cost;
  outcome.payments = got->payments;
  const tc::mech::AuditReport report =
      tc::mech::audit_unicast_payment(g, source, target, outcome);
  if (!report.ok()) return "mech::audit_unicast_payment: " + report.to_string();
  return {};
}

std::uint64_t digest(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t digest(std::uint64_t h, const std::optional<PaymentResult>& q) {
  if (!q) return digest(h, ~std::uint64_t{0});
  h = digest(h, q->path.size());
  for (const tc::graph::NodeId v : q->path) h = digest(h, v);
  h = digest(h, std::bit_cast<std::uint64_t>(q->path_cost));
  for (const tc::graph::Cost p : q->payments) {
    h = digest(h, std::bit_cast<std::uint64_t>(p));
  }
  return h;
}

bool tamper_quote(std::optional<PaymentResult>& q) {
  if (!q || !q->connected()) return false;
  if (q->path.size() > 2) {
    q->payments[q->path[1]] += 1.0;
  } else {
    q->path_cost += 1.0;
    if (!q->payments.empty()) q->payments[0] += 1.0;
  }
  return true;
}

std::string gate_self_test() {
  const tc::graph::NodeGraph g =
      tc::graph::make_erdos_renyi(30, 0.2, 1.0, 9.0, 7);
  tc::svc::QuoteEngine engine(g, 0);
  tc::svc::QuoteEngine oracle(g, 0, nullptr, oracle_config());
  for (tc::graph::NodeId s = 1; s < g.num_nodes(); ++s) {
    std::optional<PaymentResult> got = engine.quote(s);
    const std::optional<PaymentResult> want = oracle.quote(s);
    if (!got || got->path.size() <= 2) continue;
    if (const std::string d = diff_quote(got, engine.epoch(), want,
                                         oracle.epoch());
        !d.empty()) {
      return "oracle check rejects a correct quote: " + d;
    }
    if (const std::string d = check_against_kernel(g, s, 0, got); !d.empty()) {
      return "kernel check rejects a correct quote: " + d;
    }
    if (diff_quote(got, engine.epoch() + 1, want, oracle.epoch()).empty()) {
      return "oracle check accepts a stale epoch";
    }
    const std::uint64_t before = digest(kDigestBasis, got);
    if (before != digest(kDigestBasis, want)) {
      return "digest differs for equal quotes";
    }
    tamper_quote(got);
    if (digest(kDigestBasis, got) == before) {
      return "digest misses a tampered payment";
    }
    if (diff_quote(got, engine.epoch(), want, oracle.epoch()).empty()) {
      return "oracle check accepts a tampered payment";
    }
    if (check_against_kernel(g, s, 0, got).empty()) {
      return "kernel check accepts a tampered payment";
    }
    return {};
  }
  return "no multi-hop route in the self-test graph";
}

}  // namespace pb
