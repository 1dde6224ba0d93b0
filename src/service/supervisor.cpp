#include "service/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <shared_mutex>
#include <thread>
#include <utility>

#include "autoncs/pipeline.hpp"
#include "autoncs/telemetry.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/flight.hpp"
#include "util/log.hpp"

namespace autoncs::service {

namespace {

/// Serializes fault-injected jobs against everything else. The fault
/// registry is process-global, so a job that arms a fault spec must not
/// overlap any other job: fault jobs take this exclusively, normal jobs
/// share it. Production daemons (allow_fault off) only ever take the
/// shared side, which is contention-free.
std::shared_mutex& fault_mutex() {
  static std::shared_mutex mutex;
  return mutex;
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Retryable = transient by taxonomy: numerical failures (restart with the
/// checkpointed prefix intact) and resource exhaustion (pressure may have
/// passed). Deadline cancellations are Resource-category but pointless to
/// retry — the watchdog would cancel the retry too. Input and internal
/// failures are deterministic; retrying them just burns the budget.
bool retryable(const util::FlowError& error) {
  if (error.code() == "resource.deadline") return false;
  return error.category() == util::ErrorCategory::kNumerical ||
         error.category() == util::ErrorCategory::kResource;
}

void capture_error(JobOutcome& outcome, const util::FlowError& error) {
  outcome.ok = false;
  outcome.error_category = util::error_category_name(error.category());
  outcome.error_code = error.code();
  outcome.error_stage = error.stage();
  outcome.error_message = error.what();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    util::LogLine(util::LogLevel::kWarn, "service")
        << "cannot write artifact " << path;
    return;
  }
  out << body;
}

/// Backoff sleep that stays responsive to the cancel token: sleeps in
/// short slices so a deadline firing mid-backoff aborts the wait instead
/// of burning the remaining budget asleep.
void backoff_sleep(double ms, const std::atomic<bool>* cancel) {
  const double deadline = now_ms() + ms;
  while (now_ms() < deadline) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    const double left = deadline - now_ms();
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(left, 10.0)));
  }
}

}  // namespace

JobOutcome run_job(const JobRequest& request, const std::string& job_key,
                   const SupervisorOptions& options, SessionCache& cache,
                   const std::atomic<bool>* cancel, JobCounters* counters) {
  JobOutcome outcome;
  const double start_ms = now_ms();
  const double deadline_ms =
      request.deadline_ms > 0.0 ? request.deadline_ms
                                : options.default_deadline_ms;
  const std::size_t max_attempts = std::max<std::size_t>(
      1, std::min(request.max_attempts > 0 ? request.max_attempts
                                           : options.max_attempts,
                  options.max_attempts));

  // Fault-injected jobs own the process-global registry exclusively for
  // their whole attempt loop; everything else runs shared.
  const bool faulted = options.allow_fault && !request.fault.empty();
  std::shared_lock<std::shared_mutex> shared_guard(fault_mutex(),
                                                   std::defer_lock);
  std::unique_lock<std::shared_mutex> exclusive_guard(fault_mutex(),
                                                      std::defer_lock);
  if (faulted)
    exclusive_guard.lock();
  else
    shared_guard.lock();

  std::string checkpoint_dir;
  try {
    FlowConfig config;
    config.seed = request.seed;
    config.threads = request.threads > 0 ? request.threads
                                         : std::max<std::size_t>(
                                               1, options.flow_threads);
    config.baseline_crossbar_size = request.max_size;
    if (request.max_size < 16) {
      config.isc.crossbar_sizes = {request.max_size};
    } else {
      config.isc.crossbar_sizes.clear();
      for (std::size_t s = 16; s <= request.max_size; s += 4)
        config.isc.crossbar_sizes.push_back(s);
    }
    // The threshold comes from the shared cache (one FullCro baseline per
    // (network, max_size) across the daemon's lifetime, not per job). The
    // value is identical to what derive_threshold_from_baseline would
    // compute inline, and constant across attempts — which also keeps the
    // config hash, and therefore checkpoint compatibility, stable.
    config.derive_threshold_from_baseline = false;
    config.isc.utilization_threshold =
        cache.baseline_threshold(request.network, request.max_size);

    if (deadline_ms > 0.0) {
      // Each stage gets the full deadline as its wall budget: in-stage
      // overruns degrade to best-so-far, and the cancel token catches the
      // aggregate overrun at the next stage boundary. Constant across
      // attempts by construction (never derived from remaining time), so
      // retries can still resume the first attempt's checkpoints.
      config.isc.wall_budget_ms = deadline_ms;
      config.placer.wall_budget_ms = deadline_ms;
      config.router.wall_budget_ms = deadline_ms;
    }
    config.cancel = cancel;

    if (!options.work_dir.empty()) {
      checkpoint_dir = options.work_dir + "/" + job_key;
      std::error_code ec;
      std::filesystem::remove_all(checkpoint_dir, ec);
      config.checkpoint.dir = checkpoint_dir;
      config.checkpoint.resume = false;
    }

    const auto network = cache.network(request.network);

    if (faulted) util::fault_arm(request.fault);

    for (std::size_t attempt = 1;; ++attempt) {
      outcome.attempts = attempt;
      try {
        const FlowResult result = run_autoncs(*network, config);
        outcome.ok = true;
        outcome.cost = result.cost;
        outcome.degraded = result.degraded;
        outcome.resumed = result.resumed;
        outcome.recovery_events = result.recovery.events().size();
        if (!options.artifact_dir.empty())
          write_file(options.artifact_dir + "/" + job_key + ".manifest.json",
                     telemetry::run_manifest_json(config, result, "autoncs"));
        break;
      } catch (const util::FlowError& error) {
        capture_error(outcome, error);
        if (error.code() == "resource.deadline" && counters != nullptr)
          counters->deadline_cancelled = true;
        const bool deadline_left =
            deadline_ms <= 0.0 || (now_ms() - start_ms) < deadline_ms;
        if (!retryable(error) || attempt >= max_attempts || !deadline_left ||
            (cancel != nullptr &&
             cancel->load(std::memory_order_relaxed))) {
          std::string flight_path;
          if (!options.artifact_dir.empty()) {
            if (error.category() == util::ErrorCategory::kInternal &&
                util::flight_enabled()) {
              flight_path =
                  options.artifact_dir + "/" + job_key + ".flight.json";
              if (!util::flight_write_json(flight_path)) flight_path.clear();
            }
            write_file(
                options.artifact_dir + "/" + job_key + ".manifest.json",
                telemetry::run_error_manifest_json(error, flight_path));
          }
          break;
        }
        if (counters != nullptr) ++counters->retries;
        const double backoff = std::min(
            options.backoff_max_ms,
            options.backoff_initial_ms *
                std::pow(options.backoff_multiplier,
                         static_cast<double>(attempt - 1)));
        util::LogLine(util::LogLevel::kWarn, "service")
            << "job " << job_key << " attempt " << attempt << " failed ("
            << error.code() << "), retrying in " << backoff << " ms";
        backoff_sleep(backoff, cancel);
        // Warm start: resume from whatever checkpoints the failed attempt
        // left behind (e.g. a post-clustering crash resumes clustering).
        if (!checkpoint_dir.empty()) config.checkpoint.resume = true;
      }
    }
  } catch (const util::CheckError& error) {
    // Programmer-error invariant tripped inside the flow: contained as a
    // typed internal failure, the daemon keeps serving.
    outcome.ok = false;
    outcome.error_category = "internal";
    outcome.error_code = "internal.check";
    outcome.error_stage = "flow";
    outcome.error_message = error.what();
  } catch (const util::FlowError& error) {
    // Pre-attempt failures (network load, threshold derivation, bad fault
    // spec) arrive here already typed.
    capture_error(outcome, error);
  } catch (const std::bad_alloc&) {
    outcome.ok = false;
    outcome.error_category = "resource";
    outcome.error_code = "resource.alloc";
    outcome.error_stage = "flow";
    outcome.error_message = "allocation failure while preparing the job";
  } catch (const std::exception& error) {
    outcome.ok = false;
    outcome.error_category = "internal";
    outcome.error_code = "internal.exception";
    outcome.error_stage = "flow";
    outcome.error_message = error.what();
  }

  if (faulted) util::fault_disarm_all();
  if (!checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir, ec);
  }
  outcome.run_ms = now_ms() - start_ms;
  return outcome;
}

}  // namespace autoncs::service
