// Flow error taxonomy and recovery records.
//
// Every failure a production mapping flow must survive falls into one of
// four categories, each carried by an exception type with a stable error
// code, the stage that raised it, and a human-readable message:
//
//   - InputError      (std::runtime_error): malformed testbench / config /
//                     checkpoint content — the user can fix the input.
//   - NumericalError  (std::runtime_error): NaN/Inf escaping a model,
//                     solver divergence past every recovery rung.
//   - ResourceError   (std::runtime_error): unroutable nets, capacity or
//                     allocation exhaustion.
//   - CheckError      (std::logic_error, see util/check.hpp): programmer
//                     error — API misuse caught by AUTONCS_CHECK. Stays a
//                     logic_error on purpose: it is a bug, not an event to
//                     recover from. InternalError below wraps the same
//                     category for flow-level internal failures that are
//                     raised dynamically (e.g. fault-injected crashes).
//
// The category maps 1:1 onto the CLI exit codes (exit_code_for) and is
// recorded in the run manifest, so scripts can triage failures without
// parsing stderr.
//
// RecoveryLog collects the ladder's actions (retry, budget escalation,
// dense fallback, damped restart, partial routing) as typed events; the
// pipeline aggregates every stage's log into FlowResult and the manifest.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "util/fields.hpp"

namespace autoncs::util {

enum class ErrorCategory { kInput, kNumerical, kResource, kInternal };

/// Stable lowercase name: "input", "numerical", "resource", "internal".
const char* error_category_name(ErrorCategory category);

/// Process exit code contract: 0 ok, 2 input, 3 numerical, 4 resource,
/// 5 internal (1 is left to the shell/harness).
int exit_code_for(ErrorCategory category);

/// Base of the typed runtime-failure hierarchy. `code` is a stable
/// machine-readable identifier ("input.parse", "route.unroutable", ...);
/// `stage` names the flow stage that raised it ("clustering", "placement",
/// "routing", "io", "flow").
class FlowError : public std::runtime_error {
 public:
  FlowError(ErrorCategory category, std::string code, std::string stage,
            const std::string& message);

  ErrorCategory category() const { return category_; }
  const std::string& code() const { return code_; }
  const std::string& stage() const { return stage_; }
  int exit_code() const { return exit_code_for(category_); }

 private:
  ErrorCategory category_;
  std::string code_;
  std::string stage_;
};

class InputError : public FlowError {
 public:
  InputError(std::string code, std::string stage, const std::string& message)
      : FlowError(ErrorCategory::kInput, std::move(code), std::move(stage),
                  message) {}
};

class NumericalError : public FlowError {
 public:
  NumericalError(std::string code, std::string stage,
                 const std::string& message)
      : FlowError(ErrorCategory::kNumerical, std::move(code), std::move(stage),
                  message) {}
};

class ResourceError : public FlowError {
 public:
  ResourceError(std::string code, std::string stage,
                const std::string& message)
      : FlowError(ErrorCategory::kResource, std::move(code), std::move(stage),
                  message) {}
};

class InternalError : public FlowError {
 public:
  InternalError(std::string code, std::string stage,
                const std::string& message)
      : FlowError(ErrorCategory::kInternal, std::move(code), std::move(stage),
                  message) {}
};

/// One rung of the recovery ladder firing. `alters_result` marks actions
/// whose output is not bit-identical to the clean path (budget escalation,
/// dense fallback, damped restart, partial routing) — any such event flags
/// the flow result as degraded; a plain same-parameters retry does not.
struct RecoveryEvent {
  std::string stage;    // "clustering", "placement", "routing", "flow"
  std::string point;    // what failed, e.g. "lanczos.no_converge"
  std::string action;   // "retry", "budget_escalation", "dense_fallback",
                        // "damped_restart", "partial_routing",
                        // "budget_exhausted"
  bool recovered = true;
  bool alters_result = false;
  std::string detail;
};

/// One row of the manifest's `recovery` list (util/fields.hpp).
template <RecordOf<RecoveryEvent> Event, class F>
void visit_fields(Event& event, F&& f) {
  auto& [stage, point, action, recovered, alters_result, detail] = event;
  f("stage", stage);
  f("point", point);
  f("action", action);
  f("recovered", recovered);
  f("alters_result", alters_result);
  f("detail", detail);
}

/// Collector for ladder events. Recording is append-only and expected from
/// sequential driver code (stage entry points, commit phases) — never from
/// inside a parallel region, which keeps the event order deterministic.
class RecoveryLog {
 public:
  void record(RecoveryEvent event) { events_.push_back(std::move(event)); }
  const std::vector<RecoveryEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// True when any event failed to recover or altered the result — the
  /// flow-level "degraded" flag surfaced in the run manifest.
  bool degraded() const;

  /// Stable code of the first degrading event ("" when none): the
  /// manifest's error_code field for runs that completed degraded.
  std::string first_degraded_code() const;

  /// Appends every event of `other` (stage logs folding into the flow log).
  void merge(const RecoveryLog& other);

 private:
  std::vector<RecoveryEvent> events_;
};

}  // namespace autoncs::util
