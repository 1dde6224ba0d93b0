#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "util/error.hpp"
#include "util/flight.hpp"
#include "util/log.hpp"

namespace autoncs::service {

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// One client connection. The response writer is shared between the
/// reader thread (control-op answers, rejections) and any worker thread
/// finishing one of its jobs, so writes serialize on `write_mutex` and
/// the fd stays owned here until the last respond closure is gone.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes `line` + '\n'. MSG_NOSIGNAL (belt) plus the daemon's SIGPIPE
  /// ignore (suspenders): a client hanging up mid-response costs nothing.
  void send_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!open.load(std::memory_order_relaxed)) return;
    std::string framed = line;
    framed.push_back('\n');
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        open.store(false, std::memory_order_relaxed);
        return;
      }
      sent += static_cast<std::size_t>(n);
    }
  }
};

/// Watchdog bookkeeping for one in-flight job.
struct Server::ActiveJob {
  double deadline_at_ms = 0.0;  // steady-clock absolute; 0 = no deadline
  std::shared_ptr<std::atomic<bool>> cancel;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_networks),
      queue_(options_.queue_capacity) {
  stats_.workers = options_.workers;
}

Server::~Server() {
  if (started_.load()) {
    request_drain();
    wait();
  }
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void Server::start() {
  // A worker writing to a vanished client must get EPIPE, not a fatal
  // signal — this plus MSG_NOSIGNAL is the crash-containment floor.
  std::signal(SIGPIPE, SIG_IGN);

  // Keep the flight recorder armed for the daemon's whole life: a fatal
  // job failure dumps the ring next to its error manifest (the ring is a
  // bounded lock-free multi-writer structure, so concurrent jobs share it
  // safely).
  util::start_flight_recorder();

  // Checkpoint saves create their own per-job subdirectories, but the
  // artifact sink does not — materialize both roots up front so
  // `--artifact-dir` works without a pre-created directory (best-effort,
  // like artifact writes themselves: failure only warns per write).
  std::error_code ec;
  if (!options_.supervisor.work_dir.empty())
    std::filesystem::create_directories(options_.supervisor.work_dir, ec);
  if (!options_.supervisor.artifact_dir.empty())
    std::filesystem::create_directories(options_.supervisor.artifact_dir, ec);

  if (::pipe(wake_pipe_) != 0)
    throw util::InputError("input.io", "service", "cannot create wake pipe");

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw util::InputError("input.io", "service", "cannot create socket");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path))
    throw util::InputError("input.io", "service",
                           "socket path too long: " + options_.socket_path);
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw util::InputError(
        "input.io", "service",
        "cannot bind socket " + options_.socket_path + ": " +
            std::strerror(errno));
  if (::listen(listen_fd_, 16) != 0)
    throw util::InputError("input.io", "service", "cannot listen on socket");

  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.workers); ++i)
    workers_.emplace_back([this] { worker_loop(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });
  util::LogLine(util::LogLevel::kInfo, "service")
      << "serving on " << options_.socket_path << " (" << options_.workers
      << " workers, queue " << options_.queue_capacity << ")";
}

void Server::request_drain() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    // Async-signal-safe; EAGAIN (pipe already full of drain requests) is
    // as good as a successful write.
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

int Server::drain_fd() const { return wake_pipe_[1]; }

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    auto connection = std::make_shared<Connection>();
    connection->fd = client;
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.connections;
    }
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_threads_.emplace_back(
        [this, connection] { connection_loop(connection); });
  }
  // Drain: no new connections, no new jobs; everything queued still runs.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  queue_.begin_drain();
}

void Server::connection_loop(std::shared_ptr<Connection> connection) {
  std::string buffer;
  bool discarding = false;  // past-limit line: drop until its newline
  for (;;) {
    pollfd fd{connection->fd, POLLIN, 0};
    const int ready = ::poll(&fd, 1, 100);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    char chunk[4096];
    const ssize_t n = ::recv(connection->fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;  // EOF or error: client is gone
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (;;) {
      const std::size_t end = buffer.find('\n', begin);
      if (end == std::string::npos) break;
      std::string line = buffer.substr(begin, end - begin);
      begin = end + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (discarding) {
        discarding = false;  // the oversized line finally ended
        continue;
      }
      if (!line.empty()) handle_line(connection, line);
    }
    buffer.erase(0, begin);
    // Hardened buffering: a line that exceeds the request cap is rejected
    // while still partial — the daemon never holds unbounded bytes for
    // one client.
    if (!discarding && buffer.size() > options_.limits.max_request_bytes) {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.requests_invalid;
      }
      connection->send_line(response_rejected(
          "", "request_too_large",
          "request line exceeds " +
              std::to_string(options_.limits.max_request_bytes) + " bytes"));
      buffer.clear();
      discarding = true;
    }
  }
  connection->open.store(false, std::memory_order_relaxed);
}

void Server::handle_line(const std::shared_ptr<Connection>& connection,
                         const std::string& line) {
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.requests;
  }
  ParseResult parsed = parse_request(line, options_.limits);
  if (!parsed.ok) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.requests_invalid;
    connection->send_line(response_rejected(parsed.request.id,
                                            parsed.error_code,
                                            parsed.error_message));
    return;
  }
  switch (parsed.request.op) {
    case Op::kPing:
      connection->send_line(response_pong());
      return;
    case Op::kStats:
      connection->send_line(response_stats(stats()));
      return;
    case Op::kShutdown:
      connection->send_line(response_shutting_down());
      request_drain();
      return;
    case Op::kFlow:
      break;
  }
  if (!parsed.request.fault.empty() && !options_.supervisor.allow_fault) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.requests_invalid;
    connection->send_line(response_rejected(
        parsed.request.id, "invalid_request",
        "fault injection is disabled (start the server with --allow-fault)"));
    return;
  }
  const std::size_t seq = next_seq_.fetch_add(1);
  if (parsed.request.id.empty())
    parsed.request.id = "job-" + std::to_string(seq);
  Job job;
  job.request = std::move(parsed.request);
  job.enqueued_ms = now_ms();
  job.respond = [connection](const std::string& response_line) {
    connection->send_line(response_line);
  };
  const std::string id = job.request.id;
  switch (queue_.push(std::move(job))) {
    case PushResult::kAccepted:
      return;
    case PushResult::kQueueFull: {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.jobs_rejected_queue_full;
      }
      connection->send_line(response_rejected(
          id, "queue_full",
          "admission queue is full (" +
              std::to_string(options_.queue_capacity) +
              " jobs); retry with backoff"));
      return;
    }
    case PushResult::kDraining: {
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.jobs_rejected_shutting_down;
      }
      connection->send_line(response_rejected(id, "shutting_down",
                                              "server is draining"));
      return;
    }
  }
}

void Server::worker_loop() {
  for (;;) {
    auto job = queue_.pop();
    if (!job.has_value()) return;

    // Register with the watchdog before running.
    auto active = std::make_shared<ActiveJob>();
    active->cancel = std::make_shared<std::atomic<bool>>(false);
    const double deadline =
        job->request.deadline_ms > 0.0
            ? job->request.deadline_ms
            : options_.supervisor.default_deadline_ms;
    if (deadline > 0.0) active->deadline_at_ms = now_ms() + deadline;
    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_jobs_.push_back(active);
    }
    watchdog_cv_.notify_all();

    const std::string job_key =
        job->request.id + "." + std::to_string(next_seq_.fetch_add(1));
    JobCounters counters;
    const double queue_ms = now_ms() - job->enqueued_ms;
    const JobOutcome outcome =
        run_job(job->request, job_key, options_.supervisor, cache_,
                active->cancel.get(), &counters);

    {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_jobs_.erase(
          std::remove(active_jobs_.begin(), active_jobs_.end(), active),
          active_jobs_.end());
    }
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      if (outcome.ok)
        ++stats_.jobs_ok;
      else
        ++stats_.jobs_failed;
      stats_.retries += counters.retries;
      if (counters.deadline_cancelled) ++stats_.deadline_cancelled;
    }
    job->respond(outcome.ok ? response_ok(job->request.id, outcome, queue_ms)
                            : response_error(job->request.id, outcome,
                                             queue_ms));
  }
}

void Server::watchdog_loop() {
  std::unique_lock<std::mutex> lock(active_mutex_);
  for (;;) {
    // Sleep until the earliest deadline not yet tripped, at most one 20 ms
    // scan period: a short deadline then trips on time instead of up to a
    // period late, when a small job may already have finished. A newly
    // registered job notifies the condition, so its deadline is seen.
    double wait_ms = 20.0;
    const double scan_ms = now_ms();
    for (const auto& job : active_jobs_) {
      if (job->deadline_at_ms > 0.0 &&
          !job->cancel->load(std::memory_order_relaxed))
        wait_ms = std::min(wait_ms, job->deadline_at_ms - scan_ms);
    }
    if (wait_ms > 0.0) {
      watchdog_cv_.wait_for(
          lock, std::chrono::microseconds(
                    static_cast<long long>(std::ceil(wait_ms * 1000.0))));
    }
    if (watchdog_stop_) return;
    const double now = now_ms();
    for (const auto& job : active_jobs_) {
      if (job->deadline_at_ms > 0.0 && now >= job->deadline_at_ms)
        job->cancel->store(true, std::memory_order_relaxed);
    }
  }
}

void Server::wait() {
  if (!started_.load()) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  // accept_loop has switched the queue to draining, which overrides any
  // test-hook pause: workers finish the backlog and exit on empty.
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(active_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connection_threads_);
  }
  for (auto& thread : connections) {
    if (thread.joinable()) thread.join();
  }
  started_.store(false);
  util::LogLine(util::LogLevel::kInfo, "service") << "drained and stopped";
}

ServiceStats Server::stats() const {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    snapshot = stats_;
  }
  snapshot.queue_depth = queue_.size();
  const CacheStats cache = cache_.stats();
  snapshot.network_cache_hits = cache.network_hits;
  snapshot.network_cache_misses = cache.network_misses;
  snapshot.threshold_cache_hits = cache.threshold_hits;
  snapshot.threshold_cache_misses = cache.threshold_misses;
  return snapshot;
}

void Server::pause_workers() { queue_.set_paused(true); }

void Server::resume_workers() { queue_.set_paused(false); }

}  // namespace autoncs::service
