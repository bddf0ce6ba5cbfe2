#pragma once
// Channel-level fault knobs for the distributed protocol. Header-only plain
// data and the one rule they must meet, on purpose: sim/faults.hpp embeds
// these in a FaultPlan without linking pacds_dist, and dist/protocol.cpp
// consumes them to perturb frame delivery. Semantics are specified in
// FAULTS.md ("channel" section).

#include <string>
#include <utility>

namespace pacds::dist {

/// Per-frame fault probabilities of the shared radio channel. Every
/// (sender, receiver) delivery draws independently, in a deterministic
/// order, from one seeded stream — see run_faulty_protocol.
struct ChannelFaultConfig {
  double drop = 0.0;       ///< frame lost outright (triggers a retransmit)
  double duplicate = 0.0;  ///< frame delivered twice (receivers idempotent)
  double delay = 0.0;      ///< frame deferred to the next attempt boundary

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0;
  }
};

/// Bounded retry-with-timeout for one protocol phase: a sender retransmits
/// to the neighbors that have not acknowledged, waiting
/// min(backoff_base * 2^(attempt-1), backoff_cap) synchronous rounds between
/// attempts. After max_attempts the remaining links stay undelivered and
/// the phase proceeds degraded (FaultyProtocolResult::complete = false).
struct RetryPolicy {
  int max_attempts = 12;  ///< total transmissions per (frame, receiver) link
  int backoff_base = 1;   ///< rounds waited after the first failed attempt
  int backoff_cap = 8;    ///< ceiling of the exponential backoff
};

/// The first rule `channel` and `retry` break, named by the fault plan's
/// "channel." keys, or "". validate_fault_plan and run_faulty_protocol
/// both apply it.
[[nodiscard]] inline std::string channel_error(
    const ChannelFaultConfig& channel, const RetryPolicy& retry) {
  const auto rate = [](double p) { return p >= 0.0 && p < 1.0; };
  const std::pair<bool, const char*> rules[] = {
      {rate(channel.drop), "channel.drop must be in [0, 1)"},
      {rate(channel.duplicate), "channel.duplicate must be in [0, 1)"},
      {rate(channel.delay), "channel.delay must be in [0, 1)"},
      {retry.max_attempts >= 1, "channel.max_attempts must be >= 1"},
      {retry.backoff_base >= 1, "channel.backoff_base must be >= 1"},
      {retry.backoff_cap >= retry.backoff_base,
       "channel.backoff_cap must be >= channel.backoff_base"},
  };
  for (const auto& [holds, broken] : rules) {
    if (!holds) return broken;
  }
  return "";
}

}  // namespace pacds::dist
