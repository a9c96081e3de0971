#include "net/server.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "inference/segment_codec.h"
#include "platform/event_log.h"

namespace tcrowd::net {
namespace {

/// Longest HTTP request head we accept before dropping the connection.
constexpr size_t kMaxHttpHead = 8u << 10;
/// Listen backlog.
constexpr int kListenBacklog = 128;

std::string HttpResponse(int code, const char* reason,
                         const std::string& body,
                         const char* content_type) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct Server::Connection {
  enum class Mode {
    kSniff,   ///< first bytes pending: binary frames or HTTP?
    kFrames,  ///< TCNP protocol connection
    kHttp,    ///< plain-text metrics scrape
  };

  OwnedFd fd;
  Mode mode = Mode::kSniff;
  FrameDecoder decoder;
  std::string sniff;  ///< bytes buffered while mode is undecided / HTTP head
  std::string out;    ///< queued response bytes
  size_t out_off = 0;
  bool reads_paused = false;     ///< write queue past the high watermark
  bool close_after_flush = false;
  bool more_frames = false;  ///< whole frames may still be buffered (cap hit)
  /// Protocol version Hello negotiated for this connection (1 until a v2
  /// Hello succeeds); gates the v2-only message kinds.
  uint8_t negotiated_version = 1;
};

Server::Server(service::ServingBackend* service, ServerOptions options)
    : service_(service), options_(options) {
  if (options_.inflight_budget > 0) {
    inflight_budget_ = options_.inflight_budget;
  } else if (options_.inflight_budget == 0) {
    inflight_budget_ =
        static_cast<int64_t>(kInflightBudgetFactor) *
        std::max(1, service_->staleness_threshold());
  } else {
    inflight_budget_ = -1;  // shedding disabled
  }
}

Server::~Server() = default;

Status Server::Listen(const std::string& host, uint16_t port) {
  Status st = ListenTcp(host, port, kListenBacklog, &listen_fd_, &port_);
  if (!st.ok()) return st;
  int pipefd[2];
  if (::pipe(pipefd) != 0) {
    return Status::IoError(std::string("pipe: ") + strerror(errno));
  }
  wake_read_ = OwnedFd(pipefd[0]);
  wake_write_ = OwnedFd(pipefd[1]);
  st = SetNonBlocking(wake_read_.get());
  if (st.ok()) st = SetNonBlocking(wake_write_.get());
  return st;
}

void Server::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_write_.valid()) {
    // Only async-signal-safe calls here: Stop() runs from signal handlers.
    char byte = 'x';
    [[maybe_unused]] ssize_t ignored = ::write(wake_write_.get(), &byte, 1);
  }
}

NetStats Server::net_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool Server::wants_write(const Connection& conn) const {
  return conn.out.size() > conn.out_off;
}

bool Server::paused(const Connection& conn) const {
  return conn.reads_paused;
}

void Server::QueueResponse(Connection* conn, std::string frame) {
  if (conn->out_off > 0 && conn->out_off >= conn->out.size() / 2) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  conn->out += frame;
  size_t pending = conn->out.size() - conn->out_off;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.write_queue_peak = std::max<uint64_t>(stats_.write_queue_peak,
                                                 pending);
  }
  if (pending > options_.write_queue_high) conn->reads_paused = true;
}

void Server::AcceptPending() {
  for (;;) {
    int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or transient accept failure
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = OwnedFd(fd);
    if (!SetNonBlocking(fd).ok()) continue;  // conn closes fd on scope exit
    (void)SetNoDelay(fd);  // best-effort; latency tweak only
    epoll_event ev;
    memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // conn closes fd on scope exit
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
      ++stats_.connections_open;
    }
    connections_.emplace(fd, std::move(conn));
  }
}

void Server::CloseConnection(int fd) {
  if (connections_.erase(fd) > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    --stats_.connections_open;
  }
}

bool Server::HandleWritable(Connection* conn) {
  while (wants_write(*conn)) {
    ssize_t wrote =
        ::send(conn->fd.get(), conn->out.data() + conn->out_off,
               conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // peer vanished
    }
    conn->out_off += static_cast<size_t>(wrote);
  }
  conn->out.clear();
  conn->out_off = 0;
  // Flushed below the low watermark: the slow reader caught up, resume
  // reading it.
  conn->reads_paused = false;
  return !conn->close_after_flush;
}

bool Server::Dispatch(Connection* conn, const Frame& frame) {
  const std::string& p = frame.payload;
  std::string resp;
  switch (frame.type) {
    case MsgType::kHello: {
      HelloRequest req;
      if (!DecodeHelloRequest(p.data(), p.size(), &req).ok()) return false;
      HelloResponse out;
      uint8_t negotiated = 0;
      if (!NegotiateProtocolVersion(req.min_version, req.max_version,
                                    kProtocolVersionMin, kProtocolVersionMax,
                                    &negotiated)) {
        // Disjoint version ranges: no session is opened. The refusal ships
        // as a v1 frame — the one layout every peer past or future decodes.
        out.status = WireStatus::kFailedPrecondition;
        out.negotiated_version = 1;
        EncodeHelloResponse(out, &resp);
        break;
      }
      conn->negotiated_version = negotiated;
      out.negotiated_version = negotiated;
      out.session =
          static_cast<uint64_t>(service_->StartSession(req.worker));
      out.schema_fingerprint =
          SchemaFingerprint(service_->schema(), service_->num_rows());
      out.num_rows = static_cast<uint32_t>(service_->num_rows());
      for (const ColumnSpec& col : service_->schema().columns()) {
        WireColumn wire;
        wire.categorical = col.type == ColumnType::kCategorical ? 1 : 0;
        wire.label_count = static_cast<uint32_t>(col.num_labels());
        out.columns.push_back(wire);
      }
      EncodeHelloResponse(out, &resp);
      break;
    }
    case MsgType::kLease: {
      LeaseRequest req;
      if (!DecodeLeaseRequest(p.data(), p.size(), &req).ok()) return false;
      LeaseResponse out;
      out.cells = service_->RequestTasks(
          static_cast<service::ServingBackend::SessionId>(req.session),
          static_cast<int>(std::min<uint32_t>(req.max_tasks, 1u << 16)));
      out.drained = service_->Drained() ? 1 : 0;
      EncodeLeaseResponse(out, &resp);
      break;
    }
    case MsgType::kSubmitBatch: {
      SubmitBatchRequest req;
      if (!DecodeSubmitBatchRequest(p.data(), p.size(), &req).ok()) {
        return false;
      }
      SubmitBatchResponse out;
      // Admission control: while EM refresh lags ingest past the in-flight
      // budget, shed the WHOLE batch before the service sees it. Nothing
      // is booked, so the client's identical resend keeps the accepted
      // history — and therefore the finalized truths — unchanged.
      if (inflight_budget_ >= 0 &&
          service_->answers_since_refresh() >= inflight_budget_) {
        out.status = WireStatus::kRetryLater;
        // A shed must also schedule the refresh that clears the meter:
        // once ingest stalls, nothing else resets answers_since_refresh,
        // and RETRY_LATER would never resolve. RequestRefresh coalesces
        // with an in-flight pass and no-ops below min_answers_for_fit.
        service_->RequestRefresh();
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retry_later_total;
      } else {
        std::vector<Status> verdicts =
            service_->SubmitAnswerBatch(
                static_cast<service::ServingBackend::SessionId>(req.session),
                req.items);
        out.item_status.reserve(verdicts.size());
        for (const Status& v : verdicts) {
          out.item_status.push_back(
              static_cast<uint8_t>(WireStatusFromCode(v.code())));
        }
      }
      EncodeSubmitBatchResponse(out, &resp);
      break;
    }
    case MsgType::kRetract: {
      RetractRequest req;
      if (!DecodeRetractRequest(p.data(), p.size(), &req).ok()) return false;
      RetractResponse out;
      out.status =
          WireStatusFromCode(service_->RetractAnswer(req.worker, req.cell)
                                 .code());
      EncodeRetractResponse(out, &resp);
      break;
    }
    case MsgType::kBye: {
      ByeRequest req;
      if (!DecodeByeRequest(p.data(), p.size(), &req).ok()) return false;
      ByeResponse out;
      out.status = WireStatusFromCode(
          service_->EndSession(
                      static_cast<service::ServingBackend::SessionId>(
                          req.session))
              .code());
      EncodeByeResponse(out, &resp);
      break;
    }
    case MsgType::kFinalize: {
      FinalizeRequest req;
      if (!DecodeFinalizeRequest(p.data(), p.size(), &req).ok()) {
        return false;
      }
      // Blocks the loop for a full EM fit; Finalize is the run's terminal
      // request, so stalling other connections here is the semantics.
      InferenceResult result = service_->Finalize();
      FinalizeResponse out;
      out.digest = TruthDigest(result.estimated_truth);
      out.answer_count = service_->num_answers();
      EncodeFinalizeResponse(out, &resp);
      break;
    }
    case MsgType::kStats: {
      StatsRequest req;
      if (!DecodeStatsRequest(p.data(), p.size(), &req).ok()) return false;
      service::ServiceStats s = service_->Stats();
      StatsResponse out;
      out.tasks_open = static_cast<uint32_t>(s.tasks_open);
      out.tasks_assigned = static_cast<uint32_t>(s.tasks_assigned);
      out.tasks_answered = static_cast<uint32_t>(s.tasks_answered);
      out.tasks_finalized = static_cast<uint32_t>(s.tasks_finalized);
      out.sessions_started = static_cast<uint64_t>(s.sessions_started);
      out.sessions_active = static_cast<uint64_t>(s.sessions_active);
      out.sessions_expired = static_cast<uint64_t>(s.sessions_expired);
      out.answers_accepted = static_cast<uint64_t>(s.answers_accepted);
      out.answers_rejected = static_cast<uint64_t>(s.answers_rejected);
      out.answers_retracted = static_cast<uint64_t>(s.answers_retracted);
      out.answers_restored = static_cast<uint64_t>(s.answers_restored);
      out.assignments = static_cast<uint64_t>(s.assignments);
      out.budget_spent = s.budget_spent;
      out.budget_remaining = s.budget_remaining;
      out.engine_refreshes = static_cast<uint32_t>(s.engine_refreshes);
      out.drained = service_->Drained() ? 1 : 0;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        out.connections_accepted = stats_.connections_accepted;
        out.connections_open = stats_.connections_open;
        out.frames_processed = stats_.frames_processed;
        out.retry_later_total = stats_.retry_later_total;
        out.write_queue_peak = stats_.write_queue_peak;
        out.http_requests = stats_.http_requests;
        out.frame_errors = stats_.frame_errors;
      }
      out.inflight_answers = static_cast<uint64_t>(
          std::max<int64_t>(0, service_->answers_since_refresh()));
      out.inflight_budget =
          inflight_budget_ < 0 ? 0
                               : static_cast<uint64_t>(inflight_budget_);
      EncodeStatsResponse(out, &resp);
      break;
    }
    case MsgType::kApplyLeases: {
      ApplyLeasesRequest req;
      if (!DecodeApplyLeasesRequest(p.data(), p.size(), &req).ok()) {
        return false;
      }
      ApplyLeasesResponse out;
      if (conn->negotiated_version < 3) {
        // v3 vocabulary on an older session: refuse cleanly so the sender
        // can tell a version gap from corruption.
        out.status = WireStatus::kFailedPrecondition;
      } else {
        out.status = WireStatusFromCode(
            service_->ApplyRecordedLeases(
                        static_cast<service::ServingBackend::SessionId>(
                            req.session),
                        req.cells)
                .code());
      }
      EncodeApplyLeasesResponse(out, &resp);
      break;
    }
    case MsgType::kLogGather: {
      LogGatherRequest req;
      if (!DecodeLogGatherRequest(p.data(), p.size(), &req).ok()) {
        return false;
      }
      LogGatherResponse out;
      if (conn->negotiated_version < 3) {
        out.status = WireStatus::kFailedPrecondition;
      } else {
        std::vector<Answer> log = service_->GatherAnswerLog();
        EncodeAnswerBlock(log.data(), log.size(), &out.block);
        out.answer_count = static_cast<uint64_t>(log.size());
        if (out.block.size() + 64 > kMaxFramePayload) {
          // The whole log must fit one frame (~40k answers); past that the
          // gather seam refuses rather than truncating silently.
          out.status = WireStatus::kOutOfRange;
          out.block.clear();
          out.answer_count = 0;
        }
      }
      EncodeLogGatherResponse(out, &resp);
      break;
    }
    default:
      // Response types are valid frames but nonsensical as requests.
      return false;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.frames_processed;
  }
  QueueResponse(conn, std::move(resp));
  return true;
}

bool Server::ServeFrames(Connection* conn) {
  conn->more_frames = false;
  for (int served = 0; served < kMaxFramesPerWake; ++served) {
    if (paused(*conn)) {
      // Queue past the high watermark: hold remaining frames buffered
      // until the peer drains what it already owes us.
      conn->more_frames = true;
      return true;
    }
    Frame frame;
    std::string error;
    switch (conn->decoder.Next(&frame, &error)) {
      case FrameDecoder::Result::kFrame:
        if (!Dispatch(conn, frame)) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.frame_errors;
          return false;
        }
        break;
      case FrameDecoder::Result::kNeedMore:
        return true;
      case FrameDecoder::Result::kCorrupt: {
        // House rule: hostile bytes never crash; a stream that lost
        // framing is dropped — no resynchronization is possible.
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.frame_errors;
        return false;
      }
    }
  }
  // Fairness cap hit: yield to other connections, revisit next wake.
  conn->more_frames = true;
  return true;
}

bool Server::ServeHttp(Connection* conn) {
  size_t head_end = conn->sniff.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return conn->sniff.size() <= kMaxHttpHead;  // keep reading the head
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.http_requests;
  }
  size_t line_end = conn->sniff.find("\r\n");
  const std::string request_line = conn->sniff.substr(0, line_end);
  std::string body;
  if (request_line.rfind("GET /metrics", 0) == 0) {
    body = service_->metrics().FormatPrometheus();
    NetStats net = net_stats();
    body += "# TYPE tcrowd_net_connections_accepted counter\n";
    body += "tcrowd_net_connections_accepted " +
            std::to_string(net.connections_accepted) + "\n";
    body += "# TYPE tcrowd_net_connections_open gauge\n";
    body += "tcrowd_net_connections_open " +
            std::to_string(net.connections_open) + "\n";
    body += "# TYPE tcrowd_net_frames_processed counter\n";
    body += "tcrowd_net_frames_processed " +
            std::to_string(net.frames_processed) + "\n";
    body += "# TYPE tcrowd_net_retry_later_total counter\n";
    body += "tcrowd_net_retry_later_total " +
            std::to_string(net.retry_later_total) + "\n";
    body += "# TYPE tcrowd_net_write_queue_peak gauge\n";
    body += "tcrowd_net_write_queue_peak " +
            std::to_string(net.write_queue_peak) + "\n";
    body += "# TYPE tcrowd_net_frame_errors counter\n";
    body +=
        "tcrowd_net_frame_errors " + std::to_string(net.frame_errors) + "\n";
    QueueResponse(conn, HttpResponse(200, "OK", body,
                                     "text/plain; version=0.0.4"));
  } else {
    QueueResponse(conn,
                  HttpResponse(404, "Not Found", "not found\n",
                               "text/plain"));
  }
  conn->close_after_flush = true;
  conn->sniff.clear();
  return true;
}

bool Server::HandleReadable(Connection* conn) {
  char buf[16 << 10];
  for (;;) {
    if (paused(*conn)) return true;  // flow control: stop consuming
    ssize_t got = ::read(conn->fd.get(), buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (got == 0) {
      // Peer closed. Keep the connection only to flush queued responses.
      conn->close_after_flush = true;
      return wants_write(*conn);
    }
    size_t n = static_cast<size_t>(got);
    switch (conn->mode) {
      case Connection::Mode::kSniff: {
        conn->sniff.append(buf, n);
        if (conn->sniff.size() < 4) break;  // need more to decide
        if (memcmp(conn->sniff.data(), "TCNP", 4) == 0) {
          conn->mode = Connection::Mode::kFrames;
          conn->decoder.Feed(conn->sniff.data(), conn->sniff.size());
          conn->sniff.clear();
          conn->sniff.shrink_to_fit();
          if (!ServeFrames(conn)) return false;
        } else {
          conn->mode = Connection::Mode::kHttp;
          if (!ServeHttp(conn)) return false;
        }
        break;
      }
      case Connection::Mode::kFrames:
        conn->decoder.Feed(buf, n);
        if (!ServeFrames(conn)) return false;
        break;
      case Connection::Mode::kHttp:
        if (conn->close_after_flush) break;  // ignore pipelined extra bytes
        conn->sniff.append(buf, n);
        if (!ServeHttp(conn)) return false;
        break;
    }
  }
}

void Server::UpdateEpoll(Connection* conn) {
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.data.fd = conn->fd.get();
  if (!paused(*conn) && !conn->close_after_flush) ev.events |= EPOLLIN;
  if (wants_write(*conn)) ev.events |= EPOLLOUT;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
}

Status Server::Run() {
  if (!listen_fd_.valid()) {
    return Status::FailedPrecondition("Listen() must succeed before Run()");
  }
  epoll_fd_ = OwnedFd(::epoll_create1(0));
  if (!epoll_fd_.valid()) {
    return Status::IoError(std::string("epoll_create1: ") + strerror(errno));
  }
  epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  for (int fd : {listen_fd_.get(), wake_read_.get()}) {
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IoError(std::string("epoll_ctl: ") + strerror(errno));
    }
  }
  Status st = Status::Ok();
  std::vector<epoll_event> events(128);
  while (!stop_.load(std::memory_order_acquire)) {
    bool backlog = false;
    for (auto& [fd, conn] : connections_) {
      if (conn->more_frames && !paused(*conn)) {
        backlog = true;
        break;
      }
    }
    int rc = ::epoll_wait(epoll_fd_.get(), events.data(),
                          static_cast<int>(events.size()),
                          backlog ? 0 : -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      st = Status::IoError(std::string("epoll_wait: ") + strerror(errno));
      break;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    std::vector<int> dead;
    for (int i = 0; i < rc; ++i) {
      int fd = events[i].data.fd;
      uint32_t revents = events[i].events;
      if (fd == wake_read_.get()) {
        char drain[64];
        while (::read(wake_read_.get(), drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_.get()) {
        AcceptPending();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      bool alive = true;
      if ((revents & (EPOLLERR | EPOLLHUP)) != 0 &&
          (revents & EPOLLIN) == 0 && !wants_write(*conn)) {
        alive = false;
      }
      if (alive && (revents & EPOLLOUT) != 0) alive = HandleWritable(conn);
      if (alive && (revents & (EPOLLIN | EPOLLHUP)) != 0) {
        alive = HandleReadable(conn);
      }
      if (alive && conn->close_after_flush && !wants_write(*conn)) {
        alive = false;
      }
      if (!alive) {
        dead.push_back(fd);
      } else {
        UpdateEpoll(conn);
      }
    }
    // Frames left buffered by the fairness cap or a lifted pause: serve a
    // round even though the socket reported no fresh bytes.
    for (auto& [fd, conn] : connections_) {
      if (std::find(dead.begin(), dead.end(), fd) != dead.end()) continue;
      if (conn->more_frames && !paused(*conn)) {
        if (!ServeFrames(conn.get())) {
          dead.push_back(fd);
        } else if (conn->close_after_flush && !wants_write(*conn)) {
          dead.push_back(fd);
        } else {
          UpdateEpoll(conn.get());
        }
      }
    }
    for (int fd : dead) CloseConnection(fd);
  }
  connections_.clear();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.connections_open = 0;
  }
  return st;
}

}  // namespace tcrowd::net
