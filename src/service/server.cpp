#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <omp.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <utility>

#include "hde/components_layout.hpp"
#include "hde/parhde.hpp"
#include "hde/phde.hpp"
#include "hde/pivot_mds.hpp"
#include "hde/prior_baseline.hpp"
#include "multilevel/multilevel_hde.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "resilience/deadline.hpp"
#include "util/json_writer.hpp"
#include "util/run_context.hpp"
#include "util/timer.hpp"

namespace parhde::service {
namespace {

constexpr const char* kPhase = "service/server";

HdeOptions OptionsFromRequest(const LayoutRequest& req) {
  HdeOptions options;
  options.subspace_dim = req.subspace_dim;
  options.num_axes = req.num_axes;
  options.seed = req.seed;
  if (req.pivots == "random") options.pivots = PivotStrategy::Random;
  if (req.kernel == "serialbfs") {
    options.kernel = DistanceKernel::SerialBfs;
  } else if (req.kernel == "msbfs") {
    options.kernel = DistanceKernel::MultiSourceBfs;
  } else if (req.kernel == "sssp") {
    options.kernel = DistanceKernel::DeltaStepping;
  }
  return options;
}

HdeDriver DriverFor(const std::string& algo) {
  if (algo == "phde") return HdeDriver(&RunPhde);
  if (algo == "pivotmds") return HdeDriver(&RunPivotMds);
  if (algo == "prior") return HdeDriver(&RunPriorHde);
  if (algo == "multilevel") {
    return [](const CsrGraph& g, const HdeOptions& o) {
      MultilevelOptions ml;
      ml.hde = o;
      MultilevelResult r = RunMultilevelHde(g, ml);
      HdeResult out;
      out.layout = std::move(r.layout);
      out.timings = r.timings;
      return out;
    };
  }
  return HdeDriver(&RunParHde);
}

}  // namespace

LayoutService::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

LayoutService::LayoutService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.snapshot_dir),
      queue_(options_.queue_capacity) {}

LayoutService::~LayoutService() {
  RequestDrain();
  if (acceptor_.joinable() || !workers_.empty()) Wait();
}

void LayoutService::Start() {
  if (options_.socket_path.empty()) {
    throw ParhdeError(ErrorCode::kUsage, kPhase, "socket path is required");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw ParhdeError(ErrorCode::kUsage, kPhase,
                      "socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ParhdeError(ErrorCode::kIo, kPhase,
                      std::string("socket() failed: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // replace a stale socket file
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ParhdeError(ErrorCode::kIo, kPhase,
                      "cannot bind " + options_.socket_path + ": " +
                          std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ParhdeError(ErrorCode::kIo, kPhase,
                      std::string("listen() failed: ") + std::strerror(err));
  }

  const int workers = options_.workers < 1 ? 1 : options_.workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  // OpenMP's thread count is a per-thread setting that a new std::thread
  // does not inherit: each worker adopts the starting thread's, so a
  // daemon-wide omp_set_num_threads (parhde_serve --threads) reaches the
  // requests' kernels.
  const int omp_threads = omp_get_max_threads();
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, omp_threads] {
      omp_set_num_threads(omp_threads);
      WorkerLoop();
    });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void LayoutService::RequestDrain() {
  if (draining_.exchange(true)) return;
  // Stop the intake, front to back: no new connections, no new
  // admissions, wake every blocked reader. Admitted work keeps running.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_.Close();
  std::lock_guard<std::mutex> lock(conn_mutex_);
  for (const auto& weak : connections_) {
    if (const auto conn = weak.lock()) ::shutdown(conn->fd, SHUT_RD);
  }
}

void LayoutService::Wait() {
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lock(reader_mutex_);
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
    readers_.clear();
  }
  // Readers are gone, so no further pushes: close the queue (idempotent)
  // and let the workers drain what was admitted.
  queue_.Close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
}

void LayoutService::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // EINVAL/ECONNABORTED after shutdown(listen_fd_) is the drain
      // signal; anything else on a healthy listener is also terminal.
      return;
    }
    auto conn = std::make_shared<Connection>(fd);
    {
      // The draining_ check must happen under conn_mutex_: RequestDrain
      // sets the flag and then sweeps connections_ under this lock, so a
      // connection that races the drain is either refused here or pushed
      // in time for the sweep to shut its reads down — never orphaned.
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (draining_.load()) continue;  // fd closes with conn
      // Compact dead weak_ptrs so a long-lived daemon doesn't accumulate
      // one per historical connection.
      std::erase_if(connections_,
                    [](const std::weak_ptr<Connection>& w) { return w.expired(); });
      connections_.push_back(conn);
    }
    std::lock_guard<std::mutex> lock(reader_mutex_);
    readers_.emplace_back(
        [this, conn = std::move(conn)]() mutable { ReaderLoop(std::move(conn)); });
  }
}

void LayoutService::Respond(const std::shared_ptr<Connection>& conn,
                            const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  try {
    WriteFrame(conn->fd, payload, options_.max_frame_bytes);
  } catch (const ParhdeError& e) {
    // The client hung up before its response; its problem, not ours.
    std::fprintf(stderr, "parhde_serve: dropping response: %s\n", e.what());
  }
}

void LayoutService::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string payload;
  while (true) {
    try {
      if (!ReadFrame(conn->fd, payload, options_.max_frame_bytes)) break;
    } catch (const ParhdeError& e) {
      // Oversize length or mid-frame truncation: the stream position is
      // unrecoverable, so answer (best effort) and drop the connection.
      Respond(conn, ErrorResponse("", e.code(), e.what()));
      break;
    }

    LayoutRequest req;
    try {
      req = ParseRequest(payload);
    } catch (const ParhdeError& e) {
      Respond(conn, ErrorResponse("", e.code(), e.what()));
      continue;
    }

    if (req.op == "ping") {
      Respond(conn, OkResponse(req.id, "ping"));
      continue;
    }
    if (req.op == "stats") {
      Respond(conn, OkResponse(req.id, "stats", "stats", StatsResponseBody()));
      continue;
    }

    WallTimer queue_wait;
    const bool admitted = queue_.TryPush([this, conn, req, queue_wait] {
      std::string response;
      try {
        response = Execute(req, queue_wait.Seconds());
      } catch (const std::bad_alloc&) {
        response = ErrorResponse(req.id, ErrorCode::kResourceExhausted,
                                 "allocation failure during request");
      } catch (const std::exception& e) {
        // Untyped escape: report it as a numerical failure rather than
        // crash the daemon out from under every other client.
        response = ErrorResponse(req.id, ErrorCode::kNumerical, e.what());
      }
      Respond(conn, response);
      completed_.fetch_add(1);
    });
    if (!admitted) {
      Respond(conn, ErrorResponse(req.id, ErrorCode::kOverloaded,
                                  "admission queue full (capacity " +
                                      std::to_string(options_.queue_capacity) +
                                      "); retry later"));
    }
  }
}

void LayoutService::WorkerLoop() {
  while (auto job = queue_.Pop()) {
    (*job)();
  }
}

std::string LayoutService::Execute(const LayoutRequest& req,
                                   double queue_wait_seconds) {
  WallTimer total;
  const double budget = req.deadline_seconds > 0.0
                            ? req.deadline_seconds
                            : options_.default_deadline_seconds;
  // Per-request execution context: this request's counters, series,
  // traces, recovery log, and — critically — its deadline token all live
  // here, so concurrent requests (deadline'd or not) never see each
  // other's state. Installed on this worker thread now; the instrumented
  // kernels re-bind it on their OpenMP team threads at region entry.
  util::RunContext ctx;
  ctx.set_run_seed(req.seed);
  std::string response;
  {
    util::ScopedRunContext run_scope(ctx);
    try {
      resilience::DeadlineGuard guard("service.request", budget);

      PhaseTimings load;
      const GraphCache::Result cached = [&] {
        obs::Phase load_phase(load, "Load");
        return cache_.Get(req.graph);
      }();
      const CsrGraph& graph = *cached.graph;

      HdeOptions options = OptionsFromRequest(req);
      ComponentsLayoutOptions copts;
      copts.policy = DisconnectedPolicy::Largest;
      const ComponentsLayoutResult res =
          RunHdeOnComponents(graph, options, copts, DriverFor(req.algo));
      const CsrGraph& laid = res.used_subgraph ? res.subgraph.graph : graph;

      obs::RunReport report;
      report.tool = "parhde_serve";
      report.graph = req.graph;
      report.algo = req.algo;
      report.vertices = laid.NumVertices();
      report.edges = laid.NumEdges();
      report.components = res.num_components;
      report.config = {
          {"algo", req.algo},
          {"s", std::to_string(req.subspace_dim)},
          {"axes", std::to_string(req.num_axes)},
          {"pivots", req.pivots},
          {"kernel", req.kernel},
          {"seed", std::to_string(req.seed)},
          {"deadline", std::to_string(budget)},
      };
      report.timings = res.hde.timings;
      if (!cached.stat_hit) {
        // The load phase only exists on a miss: its absence (and
        // load_seconds == 0) is how a cache hit is verified end to end.
        report.timings.Merge(load);
      }
      report.metrics.emplace_back("effective_pivots",
                                  static_cast<double>(res.hde.pivots.size()));
      report.metrics.emplace_back("cache_hit", cached.stat_hit ? 1.0 : 0.0);
      report.metrics.emplace_back("snapshot_load",
                                  cached.snapshot_load ? 1.0 : 0.0);
      report.metrics.emplace_back("load_seconds", cached.load_seconds);
      report.metrics.emplace_back("queue_wait_seconds", queue_wait_seconds);
      report.total_seconds = total.Seconds();
      // Snapshots the per-request context installed above: counters,
      // series, thread-phase stats, and recovery attempts of THIS request
      // only — concurrent requests no longer bleed into each other's
      // reports.
      report.CollectObservability();
      response =
          OkResponse(req.id, "layout", "report", obs::ReportToJson(report));
    } catch (const ParhdeError& e) {
      response = ErrorResponse(req.id, e.code(), e.what());
    }
  }
  // The request context is quiescent now (the scope above has been torn
  // down and the kernels' teams have left their regions). Fold its
  // counters, series, and recovery attempts into the global context so
  // process-wide service.* totals keep accumulating for the `stats` op
  // and the drain report.
  ctx.MergeInto(util::GlobalRunContext());
  return response;
}

std::string LayoutService::StatsResponseBody() {
  const AdmissionQueue::Stats q = queue_.GetStats();
  const GraphCache::Stats c = cache_.GetStats();
  JsonWriter w;
  w.BeginObject();
  w.Key("queue");
  w.BeginObject();
  w.Key("capacity");
  w.UInt(options_.queue_capacity);
  w.Key("depth");
  w.UInt(q.depth);
  w.Key("peak_depth");
  w.UInt(q.peak_depth);
  w.Key("admitted");
  w.Int(q.admitted);
  w.Key("shed");
  w.Int(q.shed);
  w.Key("closed");
  w.Bool(q.closed);
  w.EndObject();
  w.Key("cache");
  w.BeginObject();
  w.Key("capacity");
  w.UInt(options_.cache_capacity);
  w.Key("resident");
  w.UInt(c.resident);
  w.Key("stat_hits");
  w.Int(c.stat_hits);
  w.Key("content_hits");
  w.Int(c.content_hits);
  w.Key("misses");
  w.Int(c.misses);
  w.Key("snapshot_loads");
  w.Int(c.snapshot_loads);
  w.Key("evictions");
  w.Int(c.evictions);
  w.EndObject();
  w.Key("completed_requests");
  w.Int(completed_.load());
  w.EndObject();
  return w.Str();
}

}  // namespace parhde::service
