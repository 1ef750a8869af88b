#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/trace.h"

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

/// Fixed socket buffers of a batch's order of size (the kernel caps them
/// at net.core.{w,r}mem_max): a sender then rarely waits on its reader
/// mid-frame, and a connection behaves the same from its first call
/// instead of after the kernel's autotuning has grown its buffers. Set
/// before listen / connect, so the window scale is negotiated for it.
void SetBuffers(int fd) {
  const int bytes = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
}

/// Payload bytes received per step: small enough to stay in a core's
/// cache between the recv, the CRC and the append.
constexpr size_t kReadChunkBytes = 64u << 10;

/// Reads one frame off the stream into `f`: the fixed header, then the
/// payload, checked against the header's CRC. The payload arrives in
/// chunks that are CRC'd while hot and appended to `f`, so each byte is
/// written to `f` once and never re-read here (no zero-fill before the
/// recv, no second pass for the check).
Status ReadFrame(int fd, FrameHeader* h, Frame* f) {
  uint8_t header[kFrameHeaderBytes];
  SAC_RETURN_NOT_OK(ReadFull(fd, header, sizeof(header)));
  SAC_ASSIGN_OR_RETURN(*h, DecodeFrameHeader(header, sizeof(header)));
  f->type = h->type;
  f->seq = h->seq;
  f->payload.clear();
  f->payload.reserve(h->payload_len);
  uint8_t chunk[kReadChunkBytes];
  uint32_t crc = 0;
  for (size_t left = h->payload_len; left > 0;) {
    const size_t n = std::min(left, sizeof(chunk));
    SAC_RETURN_NOT_OK(ReadFull(fd, chunk, n));
    crc = Crc32Extend(crc, chunk, n);
    f->payload.insert(f->payload.end(), chunk, chunk + n);
    left -= n;
  }
  return CheckCrc(*h, crc);
}

/// Sends a frame, `header` then the `payload` pieces, with scatter-gather
/// sendmsg, so payloads go from their owners' buffers to the socket
/// without a wire copy. MSG_NOSIGNAL: a dead peer surfaces as EPIPE
/// instead of killing the process with SIGPIPE.
Status WriteFrame(int fd, const uint8_t* header,
                  const std::vector<ByteView>& payload) {
  std::vector<iovec> pieces;
  pieces.reserve(1 + payload.size());
  pieces.push_back(iovec{const_cast<uint8_t*>(header), kFrameHeaderBytes});
  for (const ByteView& p : payload) {
    pieces.push_back(iovec{const_cast<uint8_t*>(p.data), p.size});
  }
  iovec* next = pieces.data();
  size_t left = pieces.size();
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = std::min<size_t>(left, IOV_MAX);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      return Status::Unavailable(std::string("send: ") +
                                 std::strerror(errno));
    }
    // Skip what went out; a partial write resumes mid-piece.
    size_t done = static_cast<size_t>(w);
    while (left > 0 && done >= next->iov_len) {
      done -= next->iov_len;
      ++next;
      --left;
    }
    if (left > 0) {
      if (w == 0) return Status::Unavailable("send: wrote nothing");
      next->iov_base = static_cast<uint8_t*>(next->iov_base) + done;
      next->iov_len -= done;
    }
  }
  return Status::OK();
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
  SetBuffers(listen_fd_);  // inherited by accepted connections
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
    FrameHeader h;
    Frame req;
    // Peer hung up or sent garbage: drop the connection.
    if (!ReadFrame(fd, &h, &req).ok()) break;
    const Reply resp = handler_(std::move(req));
    const std::vector<ByteView> payload = PayloadPieces(resp);
    uint8_t header[kFrameHeaderBytes];
    EncodeFrameHeader(resp.frame.type, h.seq, payload, header);
    if (!WriteFrame(fd, header, payload).ok()) break;
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
  SetBuffers(fd);
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

Result<Frame> TcpTransport::Call(int peer, const Frame& request,
                                 const std::vector<ByteView>& tail,
                                 CallStamps* stamps) {
  if (peer < 0 || peer >= static_cast<int>(peers_.size())) {
    return Status::InvalidArgument("tcp: no peer " + std::to_string(peer));
  }
  Peer& p = *peers_[peer];
  SAC_ASSIGN_OR_RETURN(const int fd, Checkout(p));

  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<ByteView> payload = PayloadPieces(request, tail);
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(request.type, seq, payload, header);
  if (stamps) stamps->encoded = trace::NowMicros();
  const Status ws = WriteFrame(fd, header, payload);
  if (!ws.ok()) {
    ::close(fd);
    return ws;
  }
  sent_.fetch_add(kFrameHeaderBytes + PiecesSize(payload),
                  std::memory_order_relaxed);

  FrameHeader h;
  Frame resp;
  const Status rs = ReadFrame(fd, &h, &resp);
  if (stamps) stamps->received = trace::NowMicros();
  if (!rs.ok()) {
    ::close(fd);
    return rs;
  }
  if (resp.seq != seq) {
    ::close(fd);
    return Status::DataLoss("tcp: response seq " + std::to_string(resp.seq) +
                            " does not match request seq " +
                            std::to_string(seq));
  }
  received_.fetch_add(EncodedSize(resp), std::memory_order_relaxed);
  Park(p, fd);
  return resp;
}

}  // namespace sac::net
