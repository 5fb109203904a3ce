// The benchmark's workloads. Each entry point builds its inputs from
// opts.seed, sets up (several times, for setup_s), measures one phase for
// opts.seconds, and runs the correctness gate outside the timed window.
// With traced == true the phase also records spans and fills
// PhaseResult::layer. Gate divergences throw GateFailure; an untrustworthy
// measurement throws RunRefused.
#pragma once

#include "common.hpp"

namespace pb {

PhaseResult run_fleet_zipf(const Options& opts, bool traced, int setups);
PhaseResult run_engine_churn(const Options& opts, bool traced, int setups);
PhaseResult run_cold_sweep(const Options& opts, bool traced, int setups);

}  // namespace pb
