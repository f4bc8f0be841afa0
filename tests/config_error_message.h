// Pins the exact text every config-validating constructor throws:
// "invalid <Type>:" followed by "\n  - <error>" for each validate() error,
// in validate() order.
#pragma once

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

inline std::string expected_config_message(
    std::string_view type, const std::vector<std::string>& errors) {
  std::string message = "invalid " + std::string{type} + ":";
  for (const auto& error : errors) message += "\n  - " + error;
  return message;
}

/// Runs `construct`, which must throw std::invalid_argument, and returns
/// the exception's what(); records a test failure if nothing is thrown.
template <typename Construct>
std::string thrown_config_message(Construct&& construct) {
  try {
    construct();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}
