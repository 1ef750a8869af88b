// TCP stream transport: length-prefixed frames (src/net/frame.h) over
// POSIX sockets. Both sides send a frame as header + payload (+ a
// reply's tail) in one scatter-gather sendmsg and read the payload
// straight into the frame they hand on, so no side assembles a
// contiguous wire copy. TcpTransport is the driver side -- one
// connection pool per peer, so repeated shuffle RPCs to the same worker
// reuse a warm connection instead of paying a handshake per RPC.
// TcpServer is the worker side -- an accept loop plus one service thread
// per connection, each running read-frame / handle / write-frame until
// the peer hangs up (tools/sac_worker wires it to a dist::WorkerState).
//
// Failure mapping (the coordinator's liveness logic keys off this):
// every socket-level failure -- connect refused, reset, timeout, short
// read -- comes back as Unavailable; corrupt frames come back as
// DataLoss/InvalidArgument from the codec. See docs/DISTRIBUTED.md.
#ifndef SAC_NET_TCP_H_
#define SAC_NET_TCP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/transport.h"

namespace sac::net {

/// Worker-side listener. Start() binds (port 0 = kernel-assigned, read
/// it back via port()); Stop() shuts the listener and every live
/// connection down and joins all service threads. Handler errors never
/// exist at this layer: the handler returns a frame (protocol errors are
/// kError frames built by the dist layer).
class TcpServer {
 public:
  using Handler = net::Handler;

  explicit TcpServer(Handler handler) : handler_(std::move(handler)) {}
  ~TcpServer() { Stop(); }

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  Status Start(int port);
  /// The bound port (valid after Start; the ephemeral-port answer).
  int port() const { return port_; }
  /// Idempotent; safe from any thread.
  void Stop();

 private:
  /// Accepts on `listen_fd` (the fd Start bound, passed by value so the
  /// loop never reads listen_fd_) until Stop shuts it down.
  void AcceptLoop(int listen_fd);
  void Serve(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex mu_;  // guards stopping_ / conns_ / threads_
  bool stopping_ = false;
  std::vector<int> conns_;
  std::vector<std::thread> threads_;
};

struct TcpOptions {
  /// Send/receive timeout per socket operation; a worker that stops
  /// responding turns into Unavailable instead of a hang.
  int io_timeout_ms = 10000;
  /// Idle connections kept per peer (beyond this, extras close).
  int max_idle_per_peer = 4;
};

/// Driver-side transport over a fixed peer list ("host:port" strings).
/// Connections are created lazily and parked per peer after a successful
/// call; a failed call closes its connection (never re-pooled).
class TcpTransport : public Transport {
 public:
  using Options = TcpOptions;

  explicit TcpTransport(std::vector<std::string> peer_addrs,
                        Options opts = Options());
  ~TcpTransport() override;

  const char* name() const override { return "tcp"; }
  int num_peers() const override {
    return static_cast<int>(peers_.size());
  }
  using Transport::Call;
  Result<Frame> Call(int peer, const Frame& request,
                     const std::vector<ByteView>& tail,
                     CallStamps* stamps) override;
  uint64_t bytes_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const override {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  struct Peer {
    std::string host;
    int port = 0;
    std::mutex mu;          // guards idle
    std::vector<int> idle;  // warm connections, ready for the next call
  };

  Result<int> Checkout(Peer& p);
  void Park(Peer& p, int fd);

  Options opts_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::atomic<uint64_t> next_seq_{1};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> received_{0};
};

}  // namespace sac::net

#endif  // SAC_NET_TCP_H_
