// autoncs — command-line front end for the flow.
//
//   autoncs generate --kind testbench --id 2 --out net.ncsnet
//   autoncs generate --kind random --n 200 --density 0.08 --out net.ncsnet
//   autoncs generate --kind ldpc --variables 324 --checks 162 --out net.ncsnet
//   autoncs info net.ncsnet
//   autoncs flow net.ncsnet [--baseline] [--seed N] [--max-size 64]
//                            [--threads T] [--layout] [--csv out.csv]
//                            [--trace trace.json] [--metrics metrics.jsonl]
//                            [--manifest run.json] [--log-level LEVEL]
//                            [--checkpoint-dir DIR] [--resume]
//                            [--fault SPEC] [--budget-clustering-ms X]
//                            [--budget-placement-ms X] [--budget-routing-ms X]
//
// `flow` runs AutoNCS (and optionally the FullCro baseline) on a network
// file and prints the physical cost; `generate` writes the built-in
// network families to disk; `info` prints topology statistics.
//
// Exit codes follow the error taxonomy (docs/robustness.md): 0 success
// (including degraded-but-complete runs), 2 input error, 3 numerical
// error, 4 resource exhaustion, 5 internal error. Usage mistakes share
// exit 2 with input errors.
//
// Robustness (docs/robustness.md): --checkpoint-dir saves restart points
// after clustering and placement; --resume restarts from the furthest
// compatible one, bit-identically. --fault arms a deterministic fault
// injection point (testing only); --budget-*-ms cap each stage's wall
// clock, degrading gracefully instead of hanging.
//
// Telemetry (docs/observability.md): --trace writes a Chrome trace-event
// JSON loadable in Perfetto / chrome://tracing, --metrics writes the
// convergence metrics as JSONL, and a run manifest (full config, seed,
// build type, stage wall times, final cost) lands next to either artifact
// (or at an explicit --manifest path). The flow result is bit-identical
// with telemetry on or off.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include <csignal>

#include "autoncs/pipeline.hpp"
#include "autoncs/report.hpp"
#include "autoncs/telemetry.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "nn/generators.hpp"
#include "nn/io.hpp"
#include "nn/stats.hpp"
#include "nn/testbench.hpp"
#include "util/check.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/heatmap.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace autoncs;

/// Tiny flag parser: --name value pairs plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string name = arg.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          args.flags[name] = argv[++i];
        } else {
          args.flags[name] = "1";
        }
      } else {
        args.positional.push_back(arg);
      }
    }
    return args;
  }

  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  long get_long(const std::string& name, long fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atol(it->second.c_str());
  }
  double get_double(const std::string& name, double fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : std::atof(it->second.c_str());
  }
  bool has(const std::string& name) const { return flags.contains(name); }
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  autoncs generate --kind testbench|random|block|ldpc "
               "[options] --out FILE\n"
               "  autoncs info FILE\n"
               "  autoncs flow FILE [--baseline] [--seed N] [--max-size S] "
               "[--threads T] [--layout]\n"
               "               [--trace trace.json] [--metrics metrics.jsonl] "
               "[--manifest run.json]\n"
               "  autoncs validate-json FILE... [--jsonl]   strict JSON (or "
               "JSONL) artifact check\n"
               "  autoncs serve --socket PATH [--workers N] [--queue N] "
               "[--deadline-ms X]\n"
               "               [--max-attempts N] [--work-dir DIR] "
               "[--artifact-dir DIR] [--allow-fault]\n"
               "  autoncs submit FILE --socket PATH [--id ID] [--seed N] "
               "[--max-size S] [--threads T]\n"
               "               [--deadline-ms X] [--max-attempts N] "
               "[--timeout-ms X]\n"
               "  autoncs submit --socket PATH --op ping|stats|shutdown\n"
               "common options:\n"
               "  --log-level debug|info|warn|error|off   stderr verbosity "
               "(default warn)\n"
               "  --checkpoint-dir DIR  save clustering/placement restart "
               "points into DIR\n"
               "  --resume         restart from the furthest compatible "
               "checkpoint\n"
               "  --fault SPEC     arm a deterministic fault point "
               "(point, point@N, point@*)\n"
               "  --budget-clustering-ms X / --budget-placement-ms X / "
               "--budget-routing-ms X\n"
               "                   per-stage wall-clock budgets (0 = "
               "unlimited)\n"
               "  --trace FILE     write a Chrome trace-event JSON "
               "(Perfetto / chrome://tracing)\n"
               "  --metrics FILE   write convergence metrics as JSONL\n"
               "  --manifest FILE  write the run manifest (defaults next to "
               "--trace/--metrics)\n"
               "  --flight FILE    write the crash flight-recorder ring here "
               "on error\n"
               "  --log-timestamps prefix stderr log lines with UTC ISO-8601 "
               "timestamps\n"
               "  --log-stage      annotate stderr log lines with the active "
               "flow stage\n"
               "see tools/autoncs_cli.cpp for the full option list\n");
  return 2;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "testbench");
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out FILE is required\n");
    return 2;
  }
  util::Rng rng(static_cast<std::uint64_t>(args.get_long("seed", 2015)));
  nn::ConnectionMatrix network;
  if (kind == "testbench") {
    const auto id = static_cast<int>(args.get_long("id", 1));
    network = nn::build_testbench(id).topology;
  } else if (kind == "random") {
    network = nn::random_sparse(
        static_cast<std::size_t>(args.get_long("n", 200)),
        args.get_double("density", 0.08), rng);
  } else if (kind == "block") {
    nn::BlockSparseOptions options;
    options.blocks = static_cast<std::size_t>(args.get_long("blocks", 8));
    options.intra_density = args.get_double("intra", 0.4);
    options.inter_density = args.get_double("inter", 0.005);
    network = nn::block_sparse(
        static_cast<std::size_t>(args.get_long("n", 200)), options, rng);
  } else if (kind == "ldpc") {
    nn::LdpcOptions options;
    options.variable_nodes =
        static_cast<std::size_t>(args.get_long("variables", 324));
    options.check_nodes =
        static_cast<std::size_t>(args.get_long("checks", 162));
    options.row_weight =
        static_cast<std::size_t>(args.get_long("row-weight", 7));
    network = nn::ldpc_like(options, rng);
  } else {
    std::fprintf(stderr, "generate: unknown kind '%s'\n", kind.c_str());
    return 2;
  }
  if (!nn::save_network(network, out)) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s: %zu neurons, %zu connections, sparsity %.2f%%\n",
              out.c_str(), network.size(), network.connection_count(),
              100.0 * network.sparsity());
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.empty()) return usage();
  // The checked loader throws InputError with <file>:<line> context; main
  // maps it to exit code 2.
  const auto network = nn::load_network_checked(args.positional[0]);
  const auto stats = nn::compute_stats(network);
  std::printf("neurons:            %zu\n", stats.neurons);
  std::printf("connections:        %zu\n", stats.connections);
  std::printf("sparsity:           %.2f%%\n", 100.0 * stats.sparsity);
  std::printf("active neurons:     %zu\n", network.active_neurons().size());
  std::printf("mean fanin+fanout:  %.2f\n", stats.mean_fanin_fanout);
  std::printf("max fanin+fanout:   %zu\n", stats.max_fanin_fanout);
  std::printf("%s", util::render_ascii(network.to_field(), 24, 48).c_str());
  return 0;
}

// Validates each FILE as one complete JSON value — or, with --jsonl, as one
// JSON value per nonempty line (the metrics artifact format). Exit 0 iff
// every file passes; CI uses this to gate the bench/telemetry artifacts.
int cmd_validate_json(const Args& args) {
  if (args.positional.empty()) return usage();
  const bool jsonl = args.has("jsonl");
  bool ok = true;
  for (const std::string& path : args.positional) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "validate-json: cannot read %s\n", path.c_str());
      ok = false;
      continue;
    }
    std::string text;
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
      text.append(buffer, got);
    }
    std::fclose(f);
    bool file_ok = true;
    if (jsonl) {
      std::size_t line_no = 0;
      std::size_t begin = 0;
      while (begin <= text.size()) {
        std::size_t end = text.find('\n', begin);
        if (end == std::string::npos) end = text.size();
        const std::string line = text.substr(begin, end - begin);
        ++line_no;
        if (line.find_first_not_of(" \t\r") != std::string::npos &&
            !util::json_valid(line)) {
          std::fprintf(stderr, "validate-json: %s:%zu: invalid JSON\n",
                       path.c_str(), line_no);
          file_ok = false;
        }
        begin = end + 1;
      }
    } else if (!util::json_valid(text)) {
      std::fprintf(stderr, "validate-json: %s: invalid JSON\n", path.c_str());
      file_ok = false;
    }
    if (file_ok) std::printf("%s: ok\n", path.c_str());
    ok = ok && file_ok;
  }
  return ok ? 0 : 1;
}

int cmd_flow(const Args& args) {
  if (args.positional.empty()) return usage();
  const auto network = nn::load_network_checked(args.positional[0]);
  FlowConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_long("seed", 2015));
  // 0 = the CPUs the process may run on; the flow result is identical for
  // any value.
  config.threads = static_cast<std::size_t>(args.get_long("threads", 0));
  const auto max_size = static_cast<std::size_t>(args.get_long("max-size", 64));
  std::vector<std::size_t> sizes;
  for (std::size_t s = 16; s <= max_size; s += 4) sizes.push_back(s);
  if (!sizes.empty()) config.isc.crossbar_sizes = sizes;
  config.baseline_crossbar_size = max_size;
  config.telemetry.trace_path = args.get("trace", "");
  config.telemetry.metrics_path = args.get("metrics", "");
  config.telemetry.manifest_path = args.get("manifest", "");
  config.telemetry.flight_path = args.get("flight", "");
  if (args.has("log-timestamps")) util::set_log_timestamps(true);
  if (args.has("log-stage")) util::set_log_stage_context(true);
  config.checkpoint.dir = args.get("checkpoint-dir", "");
  config.checkpoint.resume = args.has("resume");
  config.stage_budget.clustering_ms =
      args.get_double("budget-clustering-ms", 0.0);
  config.stage_budget.placement_ms =
      args.get_double("budget-placement-ms", 0.0);
  config.stage_budget.routing_ms = args.get_double("budget-routing-ms", 0.0);

  // The CLI owns the telemetry session so a --baseline comparison lands
  // both flows in ONE trace/metrics artifact set (the nested per-flow
  // sessions inside the pipeline are inert, and the flow-name prefixes
  // keep the two flows' series apart).
  telemetry::Session session(config.telemetry);

  try {
    const auto ours = run_autoncs(network, config);
    std::printf("%s\n", summarize_flow(ours, "AutoNCS").c_str());
    std::printf("%s\n", summarize_timings(ours).c_str());
    std::printf("%s\n", summarize_convergence(ours).c_str());
    if (ours.resumed) std::printf("resumed from checkpoint\n");
    if (ours.degraded) {
      std::printf("DEGRADED: %zu recovery event(s), first: %s\n",
                  ours.recovery.events().size(),
                  ours.recovery.first_degraded_code().c_str());
    }
    if (args.has("layout")) {
      std::printf(
          "%s",
          util::render_ascii(layout_field(ours.netlist, 2.0), 26, 52).c_str());
    }
    if (args.has("baseline")) {
      const auto baseline = run_fullcro(network, config);
      std::printf("%s\n", summarize_flow(baseline, "FullCro").c_str());
      const auto cmp = compare_costs(ours, baseline);
      std::printf("reductions: wirelength %s, area %s, delay %s\n",
                  util::fmt_percent(cmp.wirelength_reduction()).c_str(),
                  util::fmt_percent(cmp.area_reduction()).c_str(),
                  util::fmt_percent(cmp.delay_reduction()).c_str());
    }
  } catch (const util::FlowError& e) {
    // Land the error manifest while the telemetry session is still alive,
    // then let main's handler pick the exit code.
    telemetry::Session::record_error(e);
    throw;
  }
  return 0;
}

// SIGTERM/SIGINT request a graceful drain by writing one byte to the
// server's wake pipe — the only async-signal-safe thing a handler may do
// with the server (docs/service.md).
volatile std::sig_atomic_t g_drain_fd = -1;

extern "C" void handle_drain_signal(int) {
  if (g_drain_fd >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n =
        ::write(static_cast<int>(g_drain_fd), &byte, 1);
  }
}

int cmd_serve(const Args& args) {
  service::ServerOptions options;
  options.socket_path = args.get("socket", "");
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket PATH is required\n");
    return 2;
  }
  options.workers = static_cast<std::size_t>(args.get_long("workers", 2));
  options.queue_capacity =
      static_cast<std::size_t>(args.get_long("queue", 8));
  options.supervisor.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  options.supervisor.max_attempts =
      static_cast<std::size_t>(args.get_long("max-attempts", 3));
  options.supervisor.flow_threads =
      static_cast<std::size_t>(args.get_long("threads", 1));
  // Warm-started retries need checkpoints, so the work dir defaults on
  // (next to the socket); artifacts stay opt-in.
  options.supervisor.work_dir =
      args.get("work-dir", options.socket_path + ".work");
  options.supervisor.artifact_dir = args.get("artifact-dir", "");
  options.supervisor.allow_fault = args.has("allow-fault");

  service::Server server(std::move(options));
  server.start();
  g_drain_fd = server.drain_fd();
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::printf("serving on %s\n", server.socket_path().c_str());
  std::fflush(stdout);
  server.wait();
  g_drain_fd = -1;
  return 0;
}

int cmd_submit(const Args& args) {
  const std::string socket_path = args.get("socket", "");
  if (socket_path.empty()) {
    std::fprintf(stderr, "submit: --socket PATH is required\n");
    return 2;
  }
  const std::string op = args.get("op", "flow");
  util::JsonWriter w;
  w.begin_object();
  w.field("op", op);
  if (op == "flow") {
    if (args.positional.empty()) {
      std::fprintf(stderr, "submit: flow requests need a network FILE\n");
      return 2;
    }
    if (args.has("id")) w.field("id", args.get("id", ""));
    w.field("network", args.positional[0]);
    if (args.has("seed"))
      w.field("seed", static_cast<std::size_t>(args.get_long("seed", 2015)));
    if (args.has("max-size"))
      w.field("max_size",
              static_cast<std::size_t>(args.get_long("max-size", 64)));
    if (args.has("threads"))
      w.field("threads",
              static_cast<std::size_t>(args.get_long("threads", 1)));
    if (args.has("deadline-ms"))
      w.field("deadline_ms", args.get_double("deadline-ms", 0.0));
    if (args.has("max-attempts"))
      w.field("max_attempts",
              static_cast<std::size_t>(args.get_long("max-attempts", 3)));
    if (args.has("fault")) w.field("fault", args.get("fault", ""));
  }
  w.end_object();

  service::Client client(socket_path);
  const std::string response =
      client.request(w.str(), args.get_double("timeout-ms", 0.0));
  std::printf("%s\n", response.c_str());

  // Exit code mirrors the taxonomy so scripts can triage without parsing:
  // rejected → 2, typed job errors → their category's code.
  util::JsonValue doc;
  if (!util::json_parse(response, doc) || !doc.is_object()) return 5;
  const util::JsonValue* status = doc.find("status");
  if (status == nullptr || !status->is_string()) return 5;
  if (status->string_value == "rejected") return 2;
  if (status->string_value != "error") return 0;
  const util::JsonValue* error = doc.find("error");
  const util::JsonValue* category =
      error != nullptr ? error->find("category") : nullptr;
  if (category == nullptr || !category->is_string()) return 5;
  if (category->string_value == "input") return 2;
  if (category->string_value == "numerical") return 3;
  if (category->string_value == "resource") return 4;
  return 5;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = Args::parse(argc, argv);
  // Typed errors map onto the exit-code contract (docs/robustness.md):
  // 2 input, 3 numerical, 4 resource, 5 internal. A CheckError is a
  // programmer-error invariant violation, so it lands on 5 alongside the
  // dynamic internal failures.
  try {
    if (args.has("log-level")) {
      util::LogLevel level;
      const std::string name = args.get("log-level", "");
      if (!util::parse_log_level(name, &level)) {
        std::fprintf(stderr,
                     "unknown --log-level '%s' (debug|info|warn|error|off)\n",
                     name.c_str());
        return 2;
      }
      util::set_log_level(level);
    }
    if (args.has("fault")) util::fault_arm(args.get("fault", ""));
    if (command == "generate") return cmd_generate(args);
    if (command == "info") return cmd_info(args);
    if (command == "flow") return cmd_flow(args);
    if (command == "validate-json") return cmd_validate_json(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "submit") return cmd_submit(args);
    return usage();
  } catch (const util::FlowError& e) {
    std::fprintf(stderr, "autoncs: %s\n", e.what());
    return e.exit_code();
  } catch (const util::CheckError& e) {
    std::fprintf(stderr, "autoncs: internal check failed: %s\n", e.what());
    return 5;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "autoncs: out of memory\n");
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "autoncs: unexpected error: %s\n", e.what());
    return 5;
  }
}
