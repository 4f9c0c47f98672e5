#include "tracing_channel.hpp"

#include <utility>

namespace e2e {

TraceContext& trace_context() noexcept {
  thread_local TraceContext context;
  return context;
}

void LinkLog::on_send(Nanos begin, Nanos end, std::uint64_t bytes) {
  const TraceContext context = trace_context();
  std::lock_guard<std::mutex> lock(mu_);
  sends_.push_back({begin, end, bytes, context});
  ++send_calls_;
  bytes_sent_ += bytes;
}

void LinkLog::on_recv(Nanos end, std::uint64_t bytes, bool opens_message) {
  std::uint32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (opens_message || received_.empty()) {
      received_.push_back({end, end, 0, 0});
    }
    RecvRecord& r = received_.back();
    r.last = end;
    r.bytes += bytes;
    ++r.calls;
    ++recv_calls_;
    bytes_received_ += bytes;
    index = static_cast<std::uint32_t>(received_.size() - 1);
  }
  if (opens_message && link_ >= 0) {
    TraceContext& context = trace_context();
    context.link = link_;
    context.index = index;
  }
}

std::vector<SendRecord> LinkLog::sends() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sends_;
}

std::vector<RecvRecord> LinkLog::received() const {
  std::lock_guard<std::mutex> lock(mu_);
  return received_;
}

std::uint64_t LinkLog::send_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return send_calls_;
}

std::uint64_t LinkLog::recv_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recv_calls_;
}

std::uint64_t LinkLog::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_;
}

std::uint64_t LinkLog::bytes_received() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_received_;
}

TracingChannel::TracingChannel(
    std::unique_ptr<snaple::serve::ByteChannel> inner,
    std::shared_ptr<LinkLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {}

void TracingChannel::send(const void* data, std::size_t len) {
  const Nanos begin = now_ns();
  inner_->send(data, len);
  const Nanos end = now_ns();
  bytes_sent_.fetch_add(len, std::memory_order_relaxed);
  log_->on_send(begin, end, len);
}

void TracingChannel::recv(void* data, std::size_t len) {
  inner_->recv(data, len);
  const Nanos end = now_ns();
  bytes_received_.fetch_add(len, std::memory_order_relaxed);
  log_->on_recv(end, len, /*opens_message=*/len == 1);
}

void TracingChannel::set_recv_timeout(std::chrono::milliseconds timeout) {
  inner_->set_recv_timeout(timeout);
}

void TracingChannel::close() { inner_->close(); }

}  // namespace e2e
