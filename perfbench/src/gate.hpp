// Correctness gate: every answer the benchmark times is checked against an
// independent computation before any number is reported.
//
//   * Fleet workloads replay each tenant's accepted declares, in
//     submission order, into a conservative oracle QuoteEngine (full
//     flush, eager snapshots, cold pricing) and require sampled responses
//     to match it payment-for-payment and epoch-for-epoch.
//   * cold_sweep checks sampled sources of every sweep against
//     core::vcg_payments_fast on the sweep's own snapshot and against
//     mech::audit_unicast_payment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/payment.hpp"
#include "graph/node_graph.hpp"
#include "svc/config.hpp"

namespace pb {

/// The always-correct engine configuration the fleet gate replays into.
tc::svc::EngineConfig oracle_config();

/// "" when `got` (served under `got_epoch`) equals the oracle's answer
/// `want` at `want_epoch` exactly: same route, same payment vector, same
/// epoch. Otherwise a one-line description of the first difference.
std::string diff_quote(const std::optional<tc::core::PaymentResult>& got,
                       std::uint64_t got_epoch,
                       const std::optional<tc::core::PaymentResult>& want,
                       std::uint64_t want_epoch);

/// "" when `got` equals core::vcg_payments_fast(g, source, target) and
/// passes mech::audit_unicast_payment on `g`; else what failed.
std::string check_against_kernel(const tc::graph::NodeGraph& g,
                                 tc::graph::NodeId source,
                                 tc::graph::NodeId target,
                                 const std::optional<tc::core::PaymentResult>& got);

/// Folds an answer (route, path cost, every payment; nullopt = no route)
/// into a running FNV-1a digest. The fleet gate keeps digests of served
/// answers and compares them with digests of the oracle's.
std::uint64_t digest(std::uint64_t h,
                     const std::optional<tc::core::PaymentResult>& q);
std::uint64_t digest(std::uint64_t h, std::uint64_t word);
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Corrupts one payment of a connected quote (the first relay's, or the
/// path cost when the route has no relay). Returns false when `q` holds no
/// route to corrupt.
bool tamper_quote(std::optional<tc::core::PaymentResult>& q);

/// Gate self-test: a correct quote passes every check and a tampered copy
/// fails every check. Returns "" on success, else what went wrong.
std::string gate_self_test();

}  // namespace pb
