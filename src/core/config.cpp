#include "core/config.h"

#include "core/similarity.h"
#include "core/value_iteration.h"
#include "util/config_check.h"

namespace capman::core {

SimilarityConfig CapmanConfig::similarity_config() const {
  SimilarityConfig sim_config;
  sim_config.c_s = c_s;
  sim_config.c_a = c_a;
  sim_config.epsilon = epsilon;
  sim_config.max_iterations = max_iterations;
  sim_config.absorbing_distance = absorbing_distance;
  sim_config.num_threads = similarity_threads;
  return sim_config;
}

ValueIterationConfig CapmanConfig::value_iteration_config() const {
  ValueIterationConfig vi_config;
  vi_config.rho = rho;
  return vi_config;
}

std::vector<std::string> CapmanConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(rho > 0.0 && rho < 1.0, "rho must be in (0, 1)");
  require(recalibration_interval.value() > 0.0,
          "recalibration_interval must be > 0");
  require(min_observations > 0.0, "min_observations must be > 0");
  require(recency_decay > 0.0 && recency_decay <= 1.0,
          "recency_decay must be in (0, 1]");
  require(exploration_initial >= 0.0 && exploration_initial <= 1.0,
          "exploration_initial must be in [0, 1]");
  require(exploration_decay_per_event > 0.0 &&
              exploration_decay_per_event <= 1.0,
          "exploration_decay_per_event must be in (0, 1]");
  require(exploration_floor >= 0.0 &&
              exploration_floor <= exploration_initial,
          "exploration_floor must be in [0, exploration_initial]");
  require(min_switch_dwell.value() >= 0.0, "min_switch_dwell must be >= 0");
  require(maintenance_power.value() >= 0.0,
          "maintenance_power must be >= 0");
  util::append_errors(errors, "similarity: ", similarity_config().validate());
  util::append_errors(errors, "value_iteration: ",
                      value_iteration_config().validate());
  return errors;
}

}  // namespace capman::core
