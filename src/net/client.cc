#include "net/client.h"

#include <chrono>
#include <thread>

namespace tcrowd::net {

Status Client::Connect(const std::string& host, uint16_t port) {
  Close();
  decoder_ = FrameDecoder();
  negotiated_version_ = 1;
  return ConnectTcp(host, port, &fd_);
}

Status Client::Call(const std::string& frame, MsgType expect,
                    std::string* payload) {
  if (!connected()) return Status::FailedPrecondition("client not connected");
  Status st = WriteAll(fd_.get(), frame.data(), frame.size());
  if (!st.ok()) {
    Close();
    return st;
  }
  char buf[4096];
  for (;;) {
    Frame got;
    std::string error;
    switch (decoder_.Next(&got, &error)) {
      case FrameDecoder::Result::kFrame:
        if (got.type != expect) {
          Close();
          return Status::Internal(
              std::string("unexpected response frame: got ") +
              MsgTypeName(got.type) + ", want " + MsgTypeName(expect));
        }
        *payload = std::move(got.payload);
        return Status::Ok();
      case FrameDecoder::Result::kCorrupt:
        Close();
        return Status::IoError("server broke framing: " + error);
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    size_t n = 0;
    st = ReadSome(fd_.get(), buf, sizeof(buf), &n);
    if (!st.ok()) {
      Close();
      return st;
    }
    if (n == 0) {
      Close();
      return Status::IoError("connection closed by server");
    }
    decoder_.Feed(buf, n);
  }
}

Status Client::Hello(const HelloRequest& req, HelloResponse* resp) {
  std::string frame;
  EncodeHelloRequest(req, &frame);
  Status st = Request(frame, MsgType::kHelloResp, DecodeHelloResponse, resp);
  if (st.ok() && resp->status == WireStatus::kOk) {
    negotiated_version_ = resp->negotiated_version;
  }
  return st;
}

Status Client::Lease(const LeaseRequest& req, LeaseResponse* resp) {
  std::string frame;
  EncodeLeaseRequest(req, &frame);
  return Request(frame, MsgType::kLeaseResp, DecodeLeaseResponse, resp);
}

Status Client::SubmitBatch(const SubmitBatchRequest& req,
                           SubmitBatchResponse* resp) {
  std::string frame;
  EncodeSubmitBatchRequest(req, &frame);
  int sleep_micros = options_.retry_later_sleep_micros;
  for (int attempt = 0; attempt < options_.retry_later_max_attempts;
       ++attempt) {
    Status st = Request(frame, MsgType::kSubmitBatchResp,
                        DecodeSubmitBatchResponse, resp);
    if (!st.ok()) return st;
    if (resp->status != WireStatus::kRetryLater) return Status::Ok();
    ++retry_later_seen_;
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_micros));
    if (sleep_micros < options_.retry_later_sleep_micros * 64) {
      sleep_micros *= 2;
    }
  }
  return Status::FailedPrecondition(
      "server kept shedding the batch (RETRY_LATER) past the retry budget");
}

Status Client::Retract(const RetractRequest& req, RetractResponse* resp) {
  std::string frame;
  EncodeRetractRequest(req, &frame);
  return Request(frame, MsgType::kRetractResp, DecodeRetractResponse, resp);
}

Status Client::Bye(const ByeRequest& req, ByeResponse* resp) {
  std::string frame;
  EncodeByeRequest(req, &frame);
  return Request(frame, MsgType::kByeResp, DecodeByeResponse, resp);
}

Status Client::Finalize(const FinalizeRequest& req, FinalizeResponse* resp) {
  std::string frame;
  EncodeFinalizeRequest(req, &frame);
  return Request(frame, MsgType::kFinalizeResp, DecodeFinalizeResponse, resp);
}

Status Client::Stats(const StatsRequest& req, StatsResponse* resp) {
  std::string frame;
  EncodeStatsRequest(req, &frame);
  return Request(frame, MsgType::kStatsResp, DecodeStatsResponse, resp);
}

Status Client::LogGather(const LogGatherRequest& req,
                         LogGatherResponse* resp) {
  if (negotiated_version_ < 3) {
    return Status::FailedPrecondition(
        "LogGather requires a Hello that negotiated protocol version >= 3");
  }
  std::string frame;
  EncodeLogGatherRequest(req, &frame);
  return Request(frame, MsgType::kLogGatherResp, DecodeLogGatherResponse,
                 resp);
}

Status Client::ApplyLeases(const ApplyLeasesRequest& req,
                           ApplyLeasesResponse* resp) {
  if (negotiated_version_ < 3) {
    return Status::FailedPrecondition(
        "ApplyLeases requires a Hello that negotiated protocol version >= 3");
  }
  std::string frame;
  EncodeApplyLeasesRequest(req, &frame);
  return Request(frame, MsgType::kApplyLeasesResp, DecodeApplyLeasesResponse,
                 resp);
}

}  // namespace tcrowd::net
