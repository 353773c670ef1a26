#ifndef LOCAT_OBS_ADMIN_SERVER_H_
#define LOCAT_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace locat::obs {

/// Embedded admin/metrics HTTP endpoint for long-running serving
/// processes (`locat serve`, or `locat tune --admin-port`).
///
/// Deliberately minimal: POSIX sockets, HTTP/1.0 (one request per
/// connection, no keep-alive), ONE background thread, loopback only.
/// When no server is started the process owns zero sockets and zero
/// threads — the disabled-is-free guarantee of the rest of src/obs.
///
/// Endpoints (GET):
///   /metrics  Prometheus text exposition of the wired registry
///   /varz     the registry as JSON (families carry p50/p95/p99)
///   /healthz  "ok"
///   /statusz  caller-provided status table (per-app serving state)
///   /flightz  flight-recorder window as JSONL
///   /quitz    requests shutdown (WaitForQuit returns; serving continues
///             until Stop) — the remote kill switch for smoke tests
///
/// The server only ever *reads* the wired sinks, all of which are
/// thread-safe, so scraping a live process is always safe and never
/// perturbs results.
class AdminServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
    /// back from port()).
    int port = 0;
    MetricsRegistry* metrics = nullptr;      // /metrics, /varz
    FlightRecorder* flight = nullptr;        // /flightz
    /// Renders /statusz (text/plain). Called from the server thread; must
    /// be thread-safe. Null => a one-line placeholder.
    std::function<std::string()> statusz;

    Options() {}
  };

  /// Binds, listens and starts the serving thread. InvalidArgument when
  /// the port cannot be bound.
  static StatusOr<std::unique_ptr<AdminServer>> Start(Options options);

  ~AdminServer();

  /// Port actually bound (resolves port 0).
  int port() const { return port_; }

  /// True once a /quitz request arrived.
  bool quit_requested() const {
    return quit_.load(std::memory_order_acquire);
  }

  /// Blocks until /quitz or the timeout (seconds; <0 waits forever).
  /// Returns true when quit was requested.
  bool WaitForQuit(double timeout_seconds);

  /// Stops the serving thread and closes the socket. Idempotent; the
  /// destructor calls it.
  void Stop();

 private:
  explicit AdminServer(Options options);

  void Serve();
  std::string HandleRequest(const std::string& method,
                            const std::string& path, int* http_code,
                            std::string* content_type);

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> quit_{false};
  std::mutex quit_mu_;
  std::condition_variable quit_cv_;
  std::thread thread_;
};

}  // namespace locat::obs

#endif  // LOCAT_OBS_ADMIN_SERVER_H_
