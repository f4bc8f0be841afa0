// The one way a config reports and rejects its errors.
//
// Every *Config::validate() returns human-readable errors, empty when
// valid. A config that owns a nested config folds the nested errors in
// under a field prefix with append_errors(); the constructor that owns
// the config rejects it with throw_if_invalid(), whose message lists
// every error:
//
//   invalid SimConfig:
//     - dt must be > 0
//     - budget.min_rebudget_gap_s must be > 0
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace capman::util {

/// Appends each of `nested`'s errors to `errors` with `prefix` in front
/// (e.g. "budget." or "similarity: "; empty keeps the error as is).
inline void append_errors(std::vector<std::string>& errors,
                          std::string_view prefix,
                          std::vector<std::string> nested) {
  for (auto& error : nested) {
    error.insert(0, prefix);
    errors.push_back(std::move(error));
  }
}

/// Throws std::invalid_argument("invalid <type>:" then "\n  - <error>"
/// per error) when `errors` is non-empty; returns otherwise.
inline void throw_if_invalid(std::string_view type,
                             const std::vector<std::string>& errors) {
  if (errors.empty()) return;
  std::string message = "invalid ";
  message.append(type).append(":");
  for (const auto& error : errors) message.append("\n  - ").append(error);
  throw std::invalid_argument(message);
}

}  // namespace capman::util
