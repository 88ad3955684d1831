#include "net/wire_client.h"

#include <string>
#include <utility>

namespace smoothscan {
namespace net {

void WireClient::Send() {
  const std::string_view wire = out_.Finish();
  transport_->WriteAll(wire.data(), wire.size());
}

void WireClient::Hello(const std::string& lane, uint32_t window) {
  out_.Start(FrameType::kHello)
      ->append("LANE=" + lane + " WINDOW=" + std::to_string(window));
  Send();
}

uint64_t WireClient::Submit(const std::string& text) {
  const uint64_t tag = next_tag_++;
  pending_[tag];  // Open the accumulator before any frame can arrive.
  AppendTagged(tag, text, out_.Start(FrameType::kQuery));
  Send();
  return tag;
}

void WireClient::Cancel(uint64_t tag) {
  AppendTagged(tag, {}, out_.Start(FrameType::kCancel));
  Send();
}

WireResult WireClient::Wait(uint64_t tag) {
  auto it = pending_.find(tag);
  if (it == pending_.end()) return WireResult{};
  while (!it->second.complete && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  WireResult result = std::move(it->second);
  pending_.erase(it);
  return result;
}

std::string WireClient::MetricsText() {
  metrics_ready_ = false;
  metrics_text_.clear();
  AppendTagged(0, {}, out_.Start(FrameType::kMetrics));
  Send();
  while (!metrics_ready_ && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  return std::move(metrics_text_);
}

void WireClient::Close() {
  if (transport_ != nullptr) transport_->Shutdown();
}

bool WireClient::PumpOnce() {
  char buf[1 << 16];
  const int n = transport_->Read(buf, sizeof buf);
  if (n <= 0) return false;
  if (!decoder_.Feed(buf, static_cast<size_t>(n)).ok()) return false;
  Frame frame;
  while (decoder_.Pop(&frame)) Dispatch(frame);
  return true;
}

void WireClient::Dispatch(const Frame& frame) {
  uint64_t tag = 0;
  std::string_view body;
  if (!ParseTagged(frame.payload, &tag, &body).ok()) return;
  if (frame.type == FrameType::kMetricsText) {
    metrics_text_ = std::string(body);
    metrics_ready_ = true;
    return;
  }
  if (frame.type == FrameType::kError && tag == 0) {
    // Connection-level error: every in-flight query is dead.
    for (auto& [t, r] : pending_) {
      if (!r.complete) {
        r.complete = true;
        r.status = Status::InvalidArgument(std::string(body));
      }
    }
    return;
  }
  auto it = pending_.find(tag);
  if (it == pending_.end() || it->second.complete) return;
  WireResult& r = it->second;
  Status s;
  switch (frame.type) {
    case FrameType::kBatch:
      s = ParseBatchPayload(frame.payload, &tag, &r.rows);
      break;
    case FrameType::kDone: {
      QueryResult result;
      s = ParseDonePayload(frame.payload, &tag, &result);
      if (!s.ok()) break;
      r.complete = true;
      r.status = std::move(result.status);
      r.metrics = result.metrics;
      r.keys = std::move(result.keys);
      return;
    }
    case FrameType::kError:
      s = Status::InvalidArgument(std::string(body));
      break;
    default:
      return;  // Client-to-server type echoed back: ignore.
  }
  // A corrupt BATCH or DONE (say, from a server speaking another DONE
  // version) fails its query instead of leaving Wait() blocked.
  if (!s.ok()) {
    r.complete = true;
    r.status = std::move(s);
  }
}

}  // namespace net
}  // namespace smoothscan
