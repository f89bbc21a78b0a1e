// Connection: one client socket on one event loop — input buffer, RESP
// parsing, pipelined-command collection, buffered output with slow-client
// backpressure, and HTTP sniffing for the /metrics endpoint.
//
// Pipelining contract (the serving layer's perf centerpiece): every
// complete command sitting in the input buffer is parsed in one pass and
// handed to MonkeyServer::Execute as a single batch, which coalesces
// consecutive reads into one DB::MultiGet and consecutive writes into
// one WriteBatch. Replies are appended to the
// output buffer in command order, so N pipelined commands cost ~1 engine
// call and one writev-sized flush instead of N round trips.
//
// Backpressure: the output buffer is bounded. Above the soft limit the
// connection stops reading (EPOLLIN dropped) — and therefore stops
// parsing and executing — until the client drains below half the limit;
// above the hard limit it is closed. A slow client can never pin more
// than hard-limit bytes of replies.

#ifndef MONKEYDB_SERVER_CONNECTION_H_
#define MONKEYDB_SERVER_CONNECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "obs/metrics.h"
#include "server/command.h"
#include "server/resp.h"

namespace monkeydb {

class EventLoop;
class MonkeyServer;

// One parsed-but-unanswered command. args are Slices into the
// connection's input buffer — valid until the batch finishes executing.
struct ParsedCommand {
  const CommandSpec* spec = nullptr;  // Null = unknown command name.
  std::vector<Slice> args;
};

class Connection {
 public:
  Connection(int fd, EventLoop* loop, MonkeyServer* server);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  // Event-loop entry points. A false return means the connection is done
  // (client gone, protocol violation, over the hard limit) and must be
  // destroyed by the loop.
  bool OnReadable();
  bool OnWritable();

  // Reply sink for MonkeyServer::Execute.
  std::string* out() { return &out_; }

  // Stop executing the rest of the batch and close once the buffered
  // replies are flushed (QUIT, protocol errors, HTTP responses).
  void CloseAfterFlush() { close_after_flush_ = true; }
  bool closing() const { return close_after_flush_; }

  size_t OutputBacklog() const { return out_.size() - out_pos_; }
  bool reads_paused() const { return reads_paused_; }

 private:
  // Parses and executes everything currently buffered (in
  // server_max_pipeline chunks), honoring backpressure between chunks.
  // False = destroy the connection.
  bool ProcessInput();
  bool HandleHttp();
  // Writes out_ to the socket, applies the output limits, and re-arms
  // epoll interest. False = destroy the connection.
  bool FlushAndUpdate();
  void UpdateInterest();

  const ServerOptions& opts() const;
  MetricsRegistry* metrics() const;

  int fd_;
  EventLoop* loop_;
  MonkeyServer* server_;
  RespParser parser_;

  std::string in_;
  size_t in_pos_ = 0;  // Bytes of in_ already parsed.
  std::string out_;
  size_t out_pos_ = 0;  // Bytes of out_ already written to the socket.

  std::vector<ParsedCommand> pending_;  // Reused across ticks.

  bool saw_bytes_ = false;  // Protocol sniffed once, on the first bytes.
  bool http_mode_ = false;
  bool reads_paused_ = false;
  bool close_after_flush_ = false;
  bool peer_eof_ = false;
  uint32_t interest_ = 0;  // Last epoll event mask we armed.
};

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_CONNECTION_H_
