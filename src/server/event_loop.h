// EventLoop: one epoll loop on one server thread. Loop 0 also owns the
// listener: it accepts every connection and hands each one to the loop
// with the fewest connections (MonkeyServer::LeastLoadedLoop), through
// that loop's inbox and eventfd. From then on the connection lives on its
// loop alone, which drives the read -> parse -> batched-execute -> write
// cycle; loops never touch each other's connections. All loops call into
// the one DB, whose read and write paths are thread-safe.
//
// The loop is epoll-based today; the Env abstraction the engine's
// io_uring substrate lives behind keeps the socket path swappable for a
// ring-based one without touching connection or executor code.

#ifndef MONKEYDB_SERVER_EVENT_LOOP_H_
#define MONKEYDB_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace monkeydb {

class Connection;
class MonkeyServer;

class EventLoop {
 public:
  // Bytes one recv may fill: the size of the loop's shared read buffer.
  static constexpr size_t kReadChunk = 64u << 10;

  explicit EventLoop(MonkeyServer* server);
  ~EventLoop();  // Closes its connections and any fd left in the inbox.

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Builds the epoll/eventfd plumbing. listen_fd (already bound,
  // listening and nonblocking; -1 for every loop but loop 0) is owned by
  // the loop from here on.
  Status Init(int listen_fd);

  // Blocks serving events until RequestStop. Runs on the loop's thread.
  void Run();

  // Thread-safe shutdown signal (eventfd wakeup).
  void RequestStop();

  // Re-arms epoll interest for a connection's fd (EPOLLIN/EPOLLOUT mask).
  void UpdateEvents(int fd, uint32_t events);

  // Connections assigned to this loop and not yet closed, whether
  // adopted or still in the inbox. Loop 0 counts a connection here when
  // it picks this loop for it.
  size_t connections() const {
    return connections_.load(std::memory_order_relaxed);
  }

  // Scratch buffer every recv on this loop reads into (kReadChunk bytes);
  // connections append only the bytes received.
  char* read_buffer() { return read_buf_.get(); }

 private:
  void AcceptNew();
  // Queues an accepted socket for this loop to adopt and wakes it;
  // thread-safe. A socket still queued when the loop is destroyed is
  // closed then.
  void Handoff(int fd);
  void Wake();
  void AdoptInbox();
  void Adopt(int fd);
  void Destroy(int fd);

  MonkeyServer* server_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> connections_{0};
  std::unique_ptr<char[]> read_buf_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;

  Mutex inbox_mu_;
  std::vector<int> inbox_ GUARDED_BY(inbox_mu_);
};

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_EVENT_LOOP_H_
