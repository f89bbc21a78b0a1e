#include "server/connection.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/trace.h"
#include "server/event_loop.h"
#include "server/server.h"

namespace monkeydb {

namespace {
// Per-tick read cap: a firehose client cannot starve its loop siblings.
constexpr size_t kMaxReadPerTick = 1u << 20;
}  // namespace

Connection::Connection(int fd, EventLoop* loop, MonkeyServer* server)
    : fd_(fd),
      loop_(loop),
      server_(server),
      parser_(RespLimits{server->options().server_max_bulk_bytes,
                         server->options().server_max_multibulk,
                         server->options().server_max_inline_bytes}),
      interest_(EPOLLIN) {}

Connection::~Connection() { ::close(fd_); }

const ServerOptions& Connection::opts() const { return server_->options(); }
MetricsRegistry* Connection::metrics() const { return server_->metrics(); }

bool Connection::OnReadable() {
  // recv into the loop's buffer and append what arrived: growing in_ by
  // a whole chunk first would zero-fill it on every call, including the
  // final one that only returns EAGAIN.
  char* buf = loop_->read_buffer();
  size_t read_this_tick = 0;
  while (read_this_tick < kMaxReadPerTick) {
    const ssize_t n = ::recv(fd_, buf, EventLoop::kReadChunk, 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      read_this_tick += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      peer_eof_ = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // Connection reset or worse.
  }
  if (!ProcessInput()) return false;
  // A close requested this tick (QUIT, protocol error, HTTP response)
  // whose replies already flushed leaves nothing to wait for — without
  // this the connection would linger with no epoll interest at all.
  if (close_after_flush_ && OutputBacklog() == 0) return false;
  if (peer_eof_ && OutputBacklog() == 0) return false;
  if (peer_eof_) close_after_flush_ = true;  // Flush replies, then go.
  return true;
}

bool Connection::OnWritable() {
  if (!FlushAndUpdate()) return false;
  // Draining below the low-water mark resumed reads; commands may be
  // sitting fully buffered in in_ with no further EPOLLIN coming.
  if (!reads_paused_ && in_pos_ < in_.size()) {
    if (!ProcessInput()) return false;
  }
  if (close_after_flush_ && OutputBacklog() == 0) return false;
  return true;
}

bool Connection::ProcessInput() {
  if (!saw_bytes_ && !in_.empty()) {
    saw_bytes_ = true;
    // HTTP sniff: "GET /" or "HEAD /" can only be an HTTP request line —
    // a RESP inline GET would carry a key, and keys beginning with '/'
    // arrive framed. Everything else is RESP.
    if (in_.compare(0, 5, "GET /") == 0 ||
        in_.compare(0, 6, "HEAD /") == 0) {
      http_mode_ = true;
    }
  }
  if (http_mode_) return HandleHttp();

  const size_t max_pipeline =
      static_cast<size_t>(opts().server_max_pipeline);
  while (!close_after_flush_) {
    if (reads_paused_) {
      // The client may have drained concurrently; retry the flush. If it
      // resumes us, keep parsing — returning here with commands buffered
      // in in_ and only EPOLLIN armed would strand them (the socket is
      // empty, so EPOLLIN never fires again).
      if (!FlushAndUpdate()) return false;
      if (reads_paused_) return true;  // EPOLLOUT armed; OnWritable retries.
      continue;
    }
    // Parse one chunk of complete commands. The parse span samples
    // independently of the command runs below it (its armer disarms
    // before Execute), so parsing cost shows up in traces without
    // coupling the head-sampling draws.
    pending_.clear();
    {
      TraceArmer parse_armer(TraceSampleHead());
      TraceSpan parse_span(TraceName::kServerParse,
                           static_cast<int64_t>(in_.size() - in_pos_));
      while (pending_.size() < max_pipeline) {
        std::vector<Slice> args;
        const RespParser::Result r =
            parser_.ParseOne(in_.data(), in_.size(), &in_pos_, &args);
        if (r == RespParser::Result::kNeedMore) break;
        if (r == RespParser::Result::kProtocolError) {
          if (metrics() != nullptr) {
            metrics()->Tick1(Tick::kServerProtocolErrors);
          }
          // Named local: Slice's deleted rvalue-string overload rejects
          // binding a temporary, even in argument position where it would
          // be safe.
          const std::string protocol_error = "ERR " + parser_.error();
          resp::AppendError(&out_, protocol_error);
          close_after_flush_ = true;
          break;
        }
        ParsedCommand cmd;
        cmd.spec = LookupCommand(args[0]);
        cmd.args = std::move(args);
        pending_.push_back(std::move(cmd));
      }
      if (parse_span.armed()) {
        parse_span.set_args(static_cast<int64_t>(in_.size() - in_pos_),
                            static_cast<int64_t>(pending_.size()));
      }
    }
    if (pending_.empty()) break;
    server_->Execute(this, &pending_);
    pending_.clear();
    // Slices into in_ are dead now; drop the consumed prefix.
    in_.erase(0, in_pos_);
    in_pos_ = 0;
    if (!FlushAndUpdate()) return false;
    if (in_pos_ >= in_.size()) break;
  }
  return FlushAndUpdate();
}

bool Connection::HandleHttp() {
  const size_t end = in_.find("\r\n\r\n");
  if (end == std::string::npos) {
    return in_.size() <= opts().server_max_inline_bytes;  // Keep waiting.
  }
  // Request line: METHOD SP PATH SP VERSION.
  const size_t line_end = in_.find("\r\n");
  const std::string line = in_.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 + 1);
  std::string method = line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? line.substr(sp1 + 1)
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (metrics() != nullptr) metrics()->Tick1(Tick::kServerHttpRequests);
  out_ += server_->HandleHttpRequest(method, path);
  close_after_flush_ = true;
  return FlushAndUpdate();
}

bool Connection::FlushAndUpdate() {
  while (out_pos_ < out_.size()) {
    const ssize_t n =
        ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
               MSG_NOSIGNAL);
    if (n > 0) {
      out_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // Peer gone mid-reply.
  }
  if (out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > (1u << 20)) {
    // Reclaim flushed bytes so a long-lived slow client does not hold a
    // buffer proportional to lifetime traffic.
    out_.erase(0, out_pos_);
    out_pos_ = 0;
  }

  const size_t backlog = OutputBacklog();
  if (backlog > opts().server_output_hard_limit_bytes) {
    if (metrics() != nullptr) {
      metrics()->Tick1(Tick::kServerOverlimitCloses);
    }
    return false;
  }
  if (!reads_paused_ && backlog > opts().server_output_soft_limit_bytes) {
    reads_paused_ = true;
    if (metrics() != nullptr) {
      metrics()->Tick1(Tick::kServerBackpressurePauses);
    }
  } else if (reads_paused_ &&
             backlog < opts().server_output_soft_limit_bytes / 2) {
    reads_paused_ = false;
  }
  UpdateInterest();
  return true;
}

void Connection::UpdateInterest() {
  uint32_t want = 0;
  if (!reads_paused_ && !close_after_flush_) want |= EPOLLIN;
  if (OutputBacklog() > 0) want |= EPOLLOUT;
  if (want != interest_) {
    interest_ = want;
    loop_->UpdateEvents(fd_, want);
  }
}

}  // namespace monkeydb
