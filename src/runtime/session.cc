#include "src/runtime/session.h"

namespace sac::runtime {

namespace {
std::shared_ptr<Session>& TlsCurrent() {
  thread_local std::shared_ptr<Session> current;
  return current;
}
}  // namespace

const std::shared_ptr<Session>& Session::Current() { return TlsCurrent(); }

Session::Scope::Scope(std::shared_ptr<Session> session) {
  std::shared_ptr<Session>& tls = TlsCurrent();
  prev_ = std::move(tls);
  tls = std::move(session);
}

Session::Scope::~Scope() { TlsCurrent() = std::move(prev_); }

AdmissionGate::Ticket AdmissionGate::Admit(const MeterSink& sink) {
  bool queued = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (live_ >= max_) {
      queued = true;
      cv_.wait(lock, [this] { return live_ < max_; });
    }
    ++live_;
  }
  sink.Add(Counter::kQueriesAdmitted, 1);
  if (queued) sink.Add(Counter::kQueriesQueued, 1);
  return Ticket(this);
}

}  // namespace sac::runtime
