#ifndef TCROWD_NET_SERVER_H_
#define TCROWD_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "net/protocol.h"
#include "net/socket_util.h"
#include "service/crowd_service.h"

namespace tcrowd::net {

/// Multiplier on InferenceArgs::staleness_threshold when the in-flight
/// budget is derived (the shed point = this many un-refreshed answer
/// batches).
constexpr int kInflightBudgetFactor = 8;
/// Fairness cap: max frames served per connection per event-loop wake, so
/// a flooding connection with a full read buffer cannot starve its peers.
constexpr int kMaxFramesPerWake = 16;

struct ServerOptions {
  /// Per-connection write-queue high watermark (bytes). A connection whose
  /// queued responses exceed this stops being read (flow control) until the
  /// queue drains below half — so a slow reader's memory footprint is
  /// bounded instead of growing with the flood.
  size_t write_queue_high = 256u << 10;
  /// Global admission-control budget: SubmitBatch requests are shed with
  /// RETRY_LATER while engine answers-since-refresh >= budget. 0 derives
  /// kInflightBudgetFactor * staleness_threshold; < 0 disables shedding.
  int64_t inflight_budget = 0;
};

/// Counters the event loop maintains; exported via Stats responses and
/// /metrics.
struct NetStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t frames_processed = 0;
  uint64_t retry_later_total = 0;
  uint64_t write_queue_peak = 0;
  uint64_t http_requests = 0;
  /// Connections dropped for framing violations (bad magic/CRC/length).
  uint64_t frame_errors = 0;
};

/// The tcrowd_serverd front-end: one thread, one epoll event loop (Linux
/// only), many connections, every request dispatched onto the shared
/// CrowdService. Because the loop is single-threaded, service calls happen
/// in exactly the order frames complete — the property behind socket-mode
/// determinism.
///
/// The same listener also answers plain-text HTTP: a connection whose first
/// bytes are not the frame magic is sniffed, and `GET /metrics` returns the
/// service registry in Prometheus text exposition format (then closes).
///
/// Backpressure (docs/PROTOCOL.md): SubmitBatch is shed with RETRY_LATER
/// while the engine's answers-since-refresh sits at/above the in-flight
/// budget — nothing is booked, the client resends the identical batch — and
/// a connection whose write queue passes the high watermark stops being
/// read until it drains.
class Server {
 public:
  Server(service::ServingBackend* service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens (port 0 = kernel-assigned; see port()). Must be
  /// called exactly once, before Run().
  Status Listen(const std::string& host, uint16_t port);
  uint16_t port() const { return port_; }

  /// Runs the event loop until Stop(). Blocks the calling thread.
  Status Run();

  /// Async-signal-safe stop: wakes the loop via the self-pipe. Safe to call
  /// from any thread or from a signal handler.
  void Stop();

  NetStats net_stats() const;
  /// The budget SubmitBatch admission is checked against.
  int64_t inflight_budget() const { return inflight_budget_; }

 private:
  struct Connection;

  /// Accepts every pending connection and registers it with the epoll set.
  void AcceptPending();
  /// Reads and serves one connection; returns false when the connection
  /// must be closed.
  bool HandleReadable(Connection* conn);
  /// Flushes queued response bytes; returns false when the connection died.
  bool HandleWritable(Connection* conn);
  /// Serves buffered whole frames (up to the fairness cap); false = close.
  bool ServeFrames(Connection* conn);
  /// Dispatches one decoded request frame onto the service, appending the
  /// response frame to the connection's write queue; false = close.
  bool Dispatch(Connection* conn, const Frame& frame);
  /// Serves sniffed HTTP bytes; false = close (always closes after one
  /// response — the endpoint is Connection: close by design).
  bool ServeHttp(Connection* conn);
  void QueueResponse(Connection* conn, std::string frame);
  void CloseConnection(int fd);
  bool wants_write(const Connection& conn) const;
  bool paused(const Connection& conn) const;

  /// Re-arms the epoll registration after queue/pause state changed.
  void UpdateEpoll(Connection* conn);

  service::ServingBackend* const service_;
  const ServerOptions options_;
  int64_t inflight_budget_ = 0;

  OwnedFd listen_fd_;
  uint16_t port_ = 0;
  OwnedFd wake_read_, wake_write_;  ///< self-pipe; Stop() writes one byte
  OwnedFd epoll_fd_;                ///< created by Run()
  std::atomic<bool> stop_{false};

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  mutable std::mutex stats_mu_;
  NetStats stats_;
};

}  // namespace tcrowd::net

#endif  // TCROWD_NET_SERVER_H_
