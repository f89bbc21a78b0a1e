#include "server/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "server/connection.h"
#include "server/server.h"

namespace monkeydb {

EventLoop::EventLoop(MonkeyServer* server)
    : server_(server), read_buf_(new char[kReadChunk]) {}

EventLoop::~EventLoop() {
  conns_.clear();  // Connections close their fds.
  {
    // Handed off but never adopted (the loop stopped first).
    MutexLock lock(inbox_mu_);
    for (int fd : inbox_) ::close(fd);
    inbox_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init(int listen_fd) {
  listen_fd_ = listen_fd;
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IoError(std::string("epoll_create1: ") +
                           strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IoError(std::string("eventfd: ") + strerror(errno));
  }
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return Status::IoError(std::string("epoll_ctl(listener): ") +
                             strerror(errno));
    }
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(wakeup): ") +
                           strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken; bail out.
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        AdoptInbox();
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Destroyed earlier this sweep.
      Connection* conn = it->second.get();
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        // Let the read path consume whatever is pending and observe the
        // EOF/error itself, so buffered pipelined commands still execute.
        alive = conn->OnReadable();
      } else {
        if (alive && (events[i].events & EPOLLIN)) {
          alive = conn->OnReadable();
        }
        if (alive && (events[i].events & EPOLLOUT)) {
          alive = conn->OnWritable();
        }
      }
      if (!alive) Destroy(fd);
    }
  }
}

void EventLoop::RequestStop() {
  stop_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::UpdateEvents(int fd, uint32_t events) {
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or transient accept failure.
    }
    if (server_->options().server_tcp_nodelay) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (server_->metrics() != nullptr) {
      server_->metrics()->Tick1(Tick::kServerConnectionsAccepted);
    }
    server_->NoteConnectionAccepted();
    // Count the connection on its loop now, so the next accept in this
    // sweep already sees it.
    EventLoop* target = server_->LeastLoadedLoop();
    target->connections_.fetch_add(1, std::memory_order_relaxed);
    if (target == this) {
      Adopt(fd);
    } else {
      target->Handoff(fd);
    }
  }
}

void EventLoop::Handoff(int fd) {
  {
    MutexLock lock(inbox_mu_);
    inbox_.push_back(fd);
  }
  Wake();
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::AdoptInbox() {
  std::vector<int> fds;
  {
    MutexLock lock(inbox_mu_);
    fds.swap(inbox_);
  }
  for (int fd : fds) Adopt(fd);
}

void EventLoop::Adopt(int fd) {
  auto conn = std::make_unique<Connection>(fd, this, server_);
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    connections_.fetch_sub(1, std::memory_order_relaxed);
    return;  // conn destructor closes the socket.
  }
  conns_.emplace(fd, std::move(conn));
}

void EventLoop::Destroy(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // close() drops the fd from the epoll set automatically.
  conns_.erase(it);
  connections_.fetch_sub(1, std::memory_order_relaxed);
  if (server_->metrics() != nullptr) {
    server_->metrics()->Tick1(Tick::kServerConnectionsClosed);
  }
}

}  // namespace monkeydb
