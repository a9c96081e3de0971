#ifndef TCROWD_NET_CLIENT_H_
#define TCROWD_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/protocol.h"
#include "net/socket_util.h"

namespace tcrowd::net {

/// Blocking request/response client over one TCP connection — the driver
/// side of the protocol (LoadGenerator socket mode, `tcrowd_cli client`,
/// the router's RemoteShardBackend). Not thread-safe: one Client per
/// driving thread/connection.
class Client {
 public:
  struct Options {
    /// SubmitBatch resends shed by admission control: attempts before the
    /// client gives up and surfaces the RETRY_LATER as FailedPrecondition.
    int retry_later_max_attempts = 10000;
    /// Back-off between resends; doubles up to 64x.
    int retry_later_sleep_micros = 200;
  };

  Client() = default;
  explicit Client(Options options) : options_(options) {}

  Status Connect(const std::string& host, uint16_t port);
  void Close() { fd_.Reset(); }
  bool connected() const { return fd_.valid(); }

  /// Typed calls: every method is a thin wrapper over the shared Request()
  /// core — encode the request, block for the matching response frame,
  /// decode its payload. An IoError means the connection is dead; a decode
  /// failure means the server broke protocol (both leave the client
  /// closed).
  /// Hello also pins the connection's protocol version: the server's pick
  /// from the ranges (see NegotiateProtocolVersion) is remembered and
  /// readable via negotiated_version(). A default HelloRequest speaks
  /// legacy v1; set max_version = kProtocolVersionMax to offer the full
  /// range.
  Status Hello(const HelloRequest& req, HelloResponse* resp);
  Status Lease(const LeaseRequest& req, LeaseResponse* resp);
  /// Honors the backpressure contract: a kRetryLater verdict backs off and
  /// resends the IDENTICAL batch (nothing was booked server-side), so
  /// shedding never changes the accepted-answer history. The returned
  /// response is the first non-shed verdict.
  Status SubmitBatch(const SubmitBatchRequest& req,
                     SubmitBatchResponse* resp);
  Status Retract(const RetractRequest& req, RetractResponse* resp);
  Status Bye(const ByeRequest& req, ByeResponse* resp);
  Status Finalize(const FinalizeRequest& req, FinalizeResponse* resp);
  Status Stats(const StatsRequest& req, StatsResponse* resp);
  /// v3 only: gathers the shard daemon's ordered live answer log / books
  /// recorded leases onto a session (router-to-daemon traffic,
  /// docs/SHARDING.md). FailedPrecondition without a prior Hello that
  /// negotiated version >= 3.
  Status LogGather(const LogGatherRequest& req, LogGatherResponse* resp);
  Status ApplyLeases(const ApplyLeasesRequest& req,
                     ApplyLeasesResponse* resp);

  /// RETRY_LATER verdicts absorbed by SubmitBatch resends so far.
  int64_t retry_later_seen() const { return retry_later_seen_; }
  /// Version the last successful Hello negotiated (1 before any Hello).
  uint8_t negotiated_version() const { return negotiated_version_; }

 private:
  /// Sends one pre-encoded frame and blocks until a whole frame of type
  /// `expect` arrives; fills *payload with its payload bytes.
  Status Call(const std::string& frame, MsgType expect, std::string* payload);

  /// The one request/response core every typed method wraps: send the
  /// frame, wait for the `expect` response, decode its payload into *resp.
  template <typename Resp>
  Status Request(const std::string& frame, MsgType expect,
                 Status (*decode)(const void*, size_t, Resp*), Resp* resp) {
    std::string payload;
    Status st = Call(frame, expect, &payload);
    if (!st.ok()) return st;
    return decode(payload.data(), payload.size(), resp);
  }

  Options options_;
  OwnedFd fd_;
  FrameDecoder decoder_;
  int64_t retry_later_seen_ = 0;
  uint8_t negotiated_version_ = 1;
};

}  // namespace tcrowd::net

#endif  // TCROWD_NET_CLIENT_H_
