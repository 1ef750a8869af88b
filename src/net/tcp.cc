#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "src/common/logging.h"

namespace sac::net {

namespace {

/// Reads exactly `n` bytes; Unavailable on EOF/error (the peer is gone
/// or wedged -- either way the connection is unusable).
Status ReadFull(int fd, uint8_t* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(fd, buf + off, n - off, 0);
    if (r > 0) {
      off += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      return Status::Unavailable("connection closed by peer");
    }
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// Writes all of `buf`; MSG_NOSIGNAL so a dead peer surfaces as EPIPE
/// instead of killing the process with SIGPIPE.
Status WriteFull(int fd, const uint8_t* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, buf + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

void SetIoTimeout(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Reads one complete frame off the stream: fixed header, then the
/// CRC-checked payload.
Result<Frame> ReadFrame(int fd) {
  uint8_t header[kFrameHeaderBytes];
  SAC_RETURN_NOT_OK(ReadFull(fd, header, sizeof(header)));
  SAC_ASSIGN_OR_RETURN(FrameHeader h,
                       DecodeFrameHeader(header, sizeof(header)));
  Frame f;
  f.type = h.type;
  f.seq = h.seq;
  f.payload.resize(h.payload_len);
  if (h.payload_len > 0) {
    SAC_RETURN_NOT_OK(ReadFull(fd, f.payload.data(), h.payload_len));
  }
  SAC_RETURN_NOT_OK(CheckPayloadCrc(h, f.payload.data()));
  return f;
}

Status WriteFrame(int fd, const Frame& f) {
  std::vector<uint8_t> wire;
  EncodeFrame(f, &wire);
  return WriteFull(fd, wire.data(), wire.size());
}

}  // namespace

// ---------------------------------------------------------------------
// TcpServer

Status TcpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status st = Status::IoError("bind port " + std::to_string(port) +
                                      ": " + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    const Status st =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  const int listen_fd = listen_fd_;
  accept_thread_ = std::thread([this, listen_fd] { AcceptLoop(listen_fd); });
  return Status::OK();
}

void TcpServer::AcceptLoop(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Listener shut down by Stop() (or a real error; either way, done).
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      break;
    }
    SetNoDelay(fd);
    conns_.push_back(fd);
    threads_.emplace_back([this, fd] { Serve(fd); });
  }
}

void TcpServer::Serve(int fd) {
  while (true) {
    Result<Frame> req = ReadFrame(fd);
    if (!req.ok()) break;  // peer hung up or sent garbage; drop the conn
    Frame resp = handler_(req.value());
    resp.seq = req.value().seq;
    if (!WriteFrame(fd, resp).ok()) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == fd) {
      conns_.erase(conns_.begin() + static_cast<long>(i));
      break;
    }
  }
  ::close(fd);
}

void TcpServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    // Wake every service thread's blocking read; each Serve() then
    // erases and closes its own fd (also under mu_, so no fd is closed
    // out from under this shutdown sweep).
    for (int fd : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  // Shutdown wakes the blocked accept(); the fd is closed only after the
  // accept thread exits, so its number cannot be reused under a running
  // accept(), and listen_fd_ is written by no thread but this one.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------
// TcpTransport

TcpTransport::TcpTransport(std::vector<std::string> peer_addrs,
                           Options opts)
    : opts_(opts) {
  for (const std::string& addr : peer_addrs) {
    auto p = std::make_unique<Peer>();
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos) {
      SAC_LOG(Warn) << "tcp: peer address '" << addr
                    << "' has no :port; it will be unreachable";
      p->host = addr;
      p->port = 0;
    } else {
      p->host = addr.substr(0, colon);
      p->port = std::atoi(addr.c_str() + colon + 1);
    }
    peers_.push_back(std::move(p));
  }
}

TcpTransport::~TcpTransport() {
  for (auto& p : peers_) {
    std::lock_guard<std::mutex> lock(p->mu);
    for (int fd : p->idle) ::close(fd);
    p->idle.clear();
  }
}

Result<int> TcpTransport::Checkout(Peer& p) {
  {
    std::lock_guard<std::mutex> lock(p.mu);
    if (!p.idle.empty()) {
      const int fd = p.idle.back();
      p.idle.pop_back();
      return fd;
    }
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(p.port);
  if (::getaddrinfo(p.host.c_str(), port_str.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::Unavailable("cannot resolve " + p.host);
  }
  const int fd = ::socket(res->ai_family, res->ai_socktype,
                          res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return Status::Unavailable(std::string("socket: ") +
                               std::strerror(errno));
  }
  SetIoTimeout(fd, opts_.io_timeout_ms);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0) {
    const Status st = Status::Unavailable(
        "connect " + p.host + ":" + port_str + ": " + std::strerror(errno));
    ::close(fd);
    return st;
  }
  SetNoDelay(fd);
  return fd;
}

void TcpTransport::Park(Peer& p, int fd) {
  std::lock_guard<std::mutex> lock(p.mu);
  if (static_cast<int>(p.idle.size()) < opts_.max_idle_per_peer) {
    p.idle.push_back(fd);
  } else {
    ::close(fd);
  }
}

Result<Frame> TcpTransport::Call(int peer, const Frame& request) {
  if (peer < 0 || peer >= static_cast<int>(peers_.size())) {
    return Status::InvalidArgument("tcp: no peer " + std::to_string(peer));
  }
  Peer& p = *peers_[peer];
  SAC_ASSIGN_OR_RETURN(const int fd, Checkout(p));

  Frame req = request;
  req.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const Status ws = WriteFrame(fd, req);
  if (!ws.ok()) {
    ::close(fd);
    return ws;
  }
  sent_.fetch_add(EncodedSize(req), std::memory_order_relaxed);

  Result<Frame> resp = ReadFrame(fd);
  if (!resp.ok()) {
    ::close(fd);
    return resp.status();
  }
  if (resp.value().seq != req.seq) {
    ::close(fd);
    return Status::DataLoss(
        "tcp: response seq " + std::to_string(resp.value().seq) +
        " does not match request seq " + std::to_string(req.seq));
  }
  received_.fetch_add(EncodedSize(resp.value()),
                      std::memory_order_relaxed);
  Park(p, fd);
  return resp;
}

}  // namespace sac::net
