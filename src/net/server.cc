// Copyright (c) the twbg authors. Licensed under the MIT license.
//
// Run-to-completion implementation of net::Server (see server.h for the
// architecture).  Lock discipline: every session structure, the parked
// awaits and the listen fd belong to the reactor thread alone and need no
// lock.  `mu_` guards only what other threads read or set: the counters
// behind stats() and the drain deadline StartDrain tightens.  `ready_mu_`
// is a leaf, taken under service locks by the unblock listener.  No
// service call runs under either mutex.

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace twbg::net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
// A session is not read while more of its responses than this are
// unflushed: TCP flow control then pushes back on a peer that never reads.
constexpr size_t kOutputHighWater = 1 << 20;
// Drain progress is the one thing the reactor polls.
constexpr int kDrainTickMs = 1;

Status Errno(const char* what) {
  return Status::Internal(
      common::Format("%s: %s", what, std::strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

Status ServerOptions::Validate() const {
  if (host.empty()) {
    return Status::InvalidArgument("host must not be empty");
  }
  if (max_sessions == 0) {
    return Status::InvalidArgument("max_sessions must be positive");
  }
  if (max_inflight_per_session == 0) {
    return Status::InvalidArgument(
        "max_inflight_per_session must be positive");
  }
  if (drain_deadline.count() < 0) {
    return Status::InvalidArgument("drain_deadline must not be negative");
  }
  if (retry_after.count() < 0) {
    return Status::InvalidArgument("retry_after must not be negative");
  }
  return Status::OK();
}

class Server::Impl {
 public:
  Impl(ServerOptions options, txn::ConcurrentLockService* service)
      : options_(std::move(options)), service_(service) {}

  ~Impl() {
    Stop();
    Join();
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) {
      // The listener writes wake_fd_: unregister it before the fd closes.
      service_->SetUnblockListener(nullptr);
      close(wake_fd_);
    }
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  Status Start() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Errno("socket");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(
          common::Format("cannot parse host '%s'", options_.host.c_str()));
    }
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      return Errno("bind");
    }
    if (listen(listen_fd_, SOMAXCONN) < 0) return Errno("listen");
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
      return Errno("getsockname");
    }
    port_ = ntohs(bound.sin_port);
    TWBG_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return Errno("eventfd");
    service_->SetUnblockListener(
        [this](lock::TransactionId tid) { Announce(tid); });
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      return Errno("epoll_ctl(listen)");
    }
    ev.data.fd = wake_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      return Errno("epoll_ctl(wake)");
    }

    reactor_ = std::thread([this] { ReactorLoop(); });
    return Status::OK();
  }

  uint16_t port() const { return port_; }

  void BeginDrain() { StartDrain(options_.drain_deadline); }

  void Stop() { StartDrain(std::chrono::milliseconds(0)); }

  void Join() {
    if (reactor_.joinable()) reactor_.join();
  }

  ServerStats stats() const {
    std::scoped_lock lock(mu_);
    ServerStats out = stats_;
    out.draining = draining_.load(std::memory_order_relaxed);
    return out;
  }

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

 private:
  // One TCP connection.  Reactor-only.
  struct Session {
    int fd = -1;
    FrameReader reader;
    // out[write_offset..] is still unflushed.
    std::string out;
    size_t write_offset = 0;
    uint32_t events = EPOLLIN;
    // Requests decoded behind a parked Await, in arrival order.
    std::deque<Request> backlog;
    bool awaiting = false;
    bool closing = false;
    uint64_t await_req_id = 0;
    lock::TransactionId await_tid = 0;
    std::set<lock::TransactionId> txns;
  };

  uint32_t RetryAfterUs() const {
    return static_cast<uint32_t>(options_.retry_after.count());
  }

  void StartDrain(std::chrono::milliseconds deadline) {
    {
      std::scoped_lock lock(mu_);
      const bool was_draining =
          draining_.exchange(true, std::memory_order_relaxed);
      const auto at = std::chrono::steady_clock::now() + deadline;
      // A Stop after BeginDrain tightens the deadline; never loosens it.
      if (!was_draining || at < drain_deadline_at_) drain_deadline_at_ = at;
    }
    // The reactor owns the listen fd and closes it on this wakeup (Tick);
    // closing it here would race the reactor's reads of the fd number,
    // which the kernel may already have reused.
    WakeReactor();
  }

  void WakeReactor() {
    if (wake_fd_ < 0) return;
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }

  // `tid` left kBlocked (the unblock listener, called on whichever thread
  // ended the wait — the reactor's own Commit or Abort included).  Only
  // the first announcement the reactor has not taken yet wakes it.
  void Announce(lock::TransactionId tid) {
    bool wake;
    {
      std::scoped_lock lock(ready_mu_);
      wake = ready_.empty();
      ready_.push_back(tid);
    }
    if (wake) WakeReactor();
  }

  // Counts a response appended to a session's output.
  void CountResponse() {
    std::scoped_lock lock(mu_);
    ++stats_.responses;
  }

  void ReactorLoop() {
    std::vector<epoll_event> events(128);
    while (true) {
      const int timeout_ms =
          draining_.load(std::memory_order_relaxed) ? kDrainTickMs : -1;
      const int n =
          epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                     timeout_ms);
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_fd_) {
          uint64_t drained = 0;
          while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          continue;
        }
        if (fd == listen_fd_) {
          AcceptAll();
          continue;
        }
        // A session closed earlier in this batch is gone from the map; its
        // fd stays open until RetireClosed, so the number is not reused.
        auto it = sessions_.find(fd);
        if (it == sessions_.end()) continue;
        Session& session = *it->second;
        if (events[i].events & (EPOLLHUP | EPOLLERR)) {
          Close(session);
          continue;
        }
        if (events[i].events & EPOLLIN) OnReadable(session);
        if (!session.closing && (events[i].events & EPOLLOUT)) {
          FlushWrites(session);
        }
      }
      if (Tick()) break;
    }
  }

  // Closing the listen socket is the "stop accepting" edge: the epoll
  // registration dies with the fd and later connects are refused by the
  // kernel.  Only the reactor touches listen_fd_ once it runs, so the
  // number it compares events against is never a stale, reused one.
  void CloseListener() {
    if (listen_fd_ < 0) return;
    close(listen_fd_);
    listen_fd_ = -1;
  }

  void AcceptAll() {
    while (true) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or listen fd already closed by drain
      if (sessions_.size() >= options_.max_sessions ||
          draining_.load(std::memory_order_relaxed)) {
        close(fd);
        continue;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        close(fd);
        continue;
      }
      auto session = std::make_unique<Session>();
      session->fd = fd;
      sessions_[fd] = std::move(session);
      std::scoped_lock lock(mu_);
      ++stats_.sessions_total;
      ++stats_.sessions_active;
    }
  }

  // One read per readiness event keeps sessions fair; level-triggered
  // epoll reports what is left.  Every complete frame read is executed and
  // its response flushed before this returns, so a session whose output
  // backs up stops being read within one chunk (FlushWrites).
  void OnReadable(Session& session) {
    char chunk[kReadChunk];
    const ssize_t n = read(session.fd, chunk, sizeof(chunk));
    if (n > 0) {
      session.reader.Append(chunk, static_cast<size_t>(n));
      DrainFrames(session);
      if (!session.closing) FlushWrites(session);
      return;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    Close(session);  // EOF or hard error: the peer is gone
  }

  // Decodes every complete frame and serves it in arrival order: executed
  // at once, or queued behind a parked Await.  A corrupt stream closes
  // the session.
  void DrainFrames(Session& session) {
    std::string payload;
    while (!session.closing) {
      Status next = session.reader.Next(&payload);
      if (next.IsWouldBlock()) return;
      if (!next.ok()) {
        ProtocolError(session, next);
        return;
      }
      Request request;
      Status decoded = DecodeRequest(payload, &request);
      if (!decoded.ok()) {
        ProtocolError(session, decoded);
        return;
      }
      {
        std::scoped_lock lock(mu_);
        ++stats_.requests;
      }
      if (!session.awaiting) {
        Dispatch(session, std::move(request));
        continue;
      }
      // The parked Await is in flight too.
      if (session.backlog.size() + 1 < options_.max_inflight_per_session) {
        session.backlog.push_back(std::move(request));
        continue;
      }
      {
        std::scoped_lock lock(mu_);
        ++stats_.inflight_rejects;
      }
      Refuse(session, request,
             common::Format(
                 "session in-flight limit (%zu) reached; retry after backoff",
                 options_.max_inflight_per_session));
    }
  }

  // Answers `request` kResourceExhausted with the retry-after hint
  // instead of executing it.
  void Refuse(Session& session, const Request& request, std::string why) {
    Response response;
    response.type = request.type;
    response.req_id = request.req_id;
    SetResponseStatus(Status::ResourceExhausted(std::move(why)),
                      RetryAfterUs(), &response);
    session.out += EncodeResponse(response);
    CountResponse();
  }

  // A malformed frame: answer with the decode error (the correlation id
  // is unrecoverable, so it is 0) and drop the connection; there is no
  // way to resynchronize a corrupt length-prefixed stream.
  void ProtocolError(Session& session, const Status& error) {
    Response response;
    response.type = MsgType::kPing;
    SetResponseStatus(error, 0, &response);
    session.out += EncodeResponse(response);
    {
      std::scoped_lock lock(mu_);
      ++stats_.protocol_errors;
      ++stats_.responses;
    }
    Close(session);
  }

  // Executes one request, or parks it if it is an Await whose wait has
  // not ended yet.
  void Dispatch(Session& session, Request request) {
    if (request.type != MsgType::kAwait) {
      session.out += EncodeResponse(Execute(session, request));
      CountResponse();
      return;
    }
    // Every exit from kBlocked after this State read is announced and
    // finds the park; a wait that already ended is answered here.
    const Status status =
        txn::AwaitStatus(request.tid, service_->State(request.tid));
    if (!status.IsWouldBlock()) {
      AppendAwaitAnswer(session, request.req_id, status);
      return;
    }
    session.awaiting = true;
    session.await_req_id = request.req_id;
    session.await_tid = request.tid;
    parked_.emplace(request.tid, &session);
  }

  // Runs the backlog in order until it is empty or an Await parks again.
  void RunBacklog(Session& session) {
    while (!session.awaiting && !session.backlog.empty()) {
      Request request = std::move(session.backlog.front());
      session.backlog.pop_front();
      Dispatch(session, std::move(request));
    }
  }

  void AppendAwaitAnswer(Session& session, uint64_t req_id,
                         const Status& status) {
    Response response;
    response.type = MsgType::kAwait;
    response.req_id = req_id;
    SetResponseStatus(status, 0, &response);
    session.out += EncodeResponse(response);
    CountResponse();
  }

  // Pushes the session's output into the socket from write_offset.  Arms
  // EPOLLOUT while bytes remain, and EPOLLIN unless more than
  // kOutputHighWater of them do.
  void FlushWrites(Session& session) {
    std::string& buffer = session.out;
    while (session.write_offset < buffer.size()) {
      // MSG_NOSIGNAL: a reset peer is an EPIPE, not a process SIGPIPE.
      const ssize_t n = send(session.fd, buffer.data() + session.write_offset,
                             buffer.size() - session.write_offset,
                             MSG_NOSIGNAL);
      if (n > 0) {
        session.write_offset += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Close(session);  // write error: the peer is gone
      return;
    }
    if (session.write_offset == buffer.size()) {
      buffer.clear();
      session.write_offset = 0;
    } else if (session.write_offset > buffer.size() / 2) {
      // Compact once the flushed prefix dominates (amortized O(1) appends).
      buffer.erase(0, session.write_offset);
      session.write_offset = 0;
    }
    if (session.closing) return;  // Close's last-gasp flush
    uint32_t events = 0;
    if (!buffer.empty()) events |= EPOLLOUT;
    if (buffer.size() <= kOutputHighWater) events |= EPOLLIN;
    if (events == session.events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = session.fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, session.fd, &ev);
    session.events = events;
  }

  // One reactor housekeeping round: answer announced awaits, advance the
  // drain, close the fds of sessions closed this pass.  Returns true when
  // the server is fully drained and the reactor should exit.
  bool Tick() {
    AnswerAnnouncedAwaits();
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (draining) {
      // Before the loop can end, so Join() never returns with the
      // listener still open.
      CloseListener();
      AdvanceDrain();
    }
    RetireClosed();
    return draining && sessions_.empty();
  }

  // Answers the awaits parked on announced tids that are not kBlocked,
  // then runs what queued up behind each.
  void AnswerAnnouncedAwaits() {
    std::vector<lock::TransactionId> announced;
    {
      std::scoped_lock lock(ready_mu_);
      announced.swap(ready_);
    }
    std::vector<Session*> answered;
    for (lock::TransactionId tid : announced) {
      auto [first, last] = parked_.equal_range(tid);
      if (first == last) continue;
      const Status status = txn::AwaitStatus(tid, service_->State(tid));
      if (status.IsWouldBlock()) continue;  // the next exit announces it
      answered.clear();
      for (auto it = first; it != last; ++it) answered.push_back(it->second);
      parked_.erase(first, last);
      for (Session* session : answered) {
        session->awaiting = false;
        AppendAwaitAnswer(*session, session->await_req_id, status);
        RunBacklog(*session);
        FlushWrites(*session);
      }
    }
  }

  // Drain engine: once every in-flight transaction has terminated — or
  // the deadline has passed — close every session (their cleanup aborts
  // whatever is left).
  void AdvanceDrain() {
    std::chrono::steady_clock::time_point deadline_at;
    {
      std::scoped_lock lock(mu_);
      deadline_at = drain_deadline_at_;  // StartDrain may tighten it
    }
    if (std::chrono::steady_clock::now() < deadline_at) {
      for (const auto& [fd, session] : sessions_) {
        // A parked await or queued work counts as in-flight even if its
        // transaction is technically terminated already.
        if (session->awaiting || !session->backlog.empty()) return;
        for (lock::TransactionId tid : session->txns) {
          Result<txn::TxnState> state = service_->State(tid);
          if (state.ok() && (*state == txn::TxnState::kActive ||
                             *state == txn::TxnState::kBlocked)) {
            return;  // keep waiting for clients to finish
          }
        }
      }
    }
    std::vector<Session*> open;
    for (const auto& [fd, session] : sessions_) open.push_back(session.get());
    for (Session* session : open) Close(*session);
  }

  // Dead-peer / drain cleanup: abort every live transaction the session
  // owns (releasing its locks and unblocking waiters), answer the parked
  // await and the backlog so no request is silently dropped, flush what
  // the socket takes, and unregister the session.  Its fd is closed by
  // RetireClosed at the end of the pass.
  void Close(Session& session) {
    if (session.closing) return;
    session.closing = true;
    uint64_t aborted = 0;
    for (lock::TransactionId tid : session.txns) {
      // Abort is a no-op error for already-terminated transactions
      // (committed, or earlier deadlock victims) — only live ones count
      // as orphans.
      if (service_->Abort(tid).ok()) ++aborted;
    }
    session.txns.clear();
    if (session.awaiting) {
      auto [first, last] = parked_.equal_range(session.await_tid);
      for (auto it = first; it != last; ++it) {
        if (it->second == &session) {
          parked_.erase(it);
          break;
        }
      }
      session.awaiting = false;
      AppendAwaitAnswer(
          session, session.await_req_id,
          Status::DeadlockVictim(common::Format(
              "T%u aborted: session closed while waiting",
              session.await_tid)));
    }
    for (const Request& request : session.backlog) {
      Refuse(session, request, "session closing; request not executed");
    }
    session.backlog.clear();
    {
      std::scoped_lock lock(mu_);
      stats_.orphan_aborts += aborted;
      --stats_.sessions_active;
    }
    FlushWrites(session);  // last-gasp delivery of the cleanup responses
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, session.fd, nullptr);
    auto it = sessions_.find(session.fd);
    closed_.push_back(std::move(it->second));
    sessions_.erase(it);
  }

  void RetireClosed() {
    for (const auto& session : closed_) close(session->fd);
    closed_.clear();
  }

  // Executes one non-Await request against the service.  Every one is
  // non-blocking (Acquire is AcquireAsync); kDetect and kView are admin
  // requests that may hold the reactor for one detection pass or render.
  Response Execute(Session& session, const Request& request) {
    Response response;
    response.type = request.type;
    response.req_id = request.req_id;
    switch (request.type) {
      case MsgType::kBegin: {
        if (draining_.load(std::memory_order_relaxed)) {
          SetResponseStatus(
              Status::ResourceExhausted(
                  "daemon is draining; no new transactions"),
              RetryAfterUs(), &response);
          break;
        }
        Result<lock::TransactionId> tid = service_->Begin();
        if (tid.ok()) {
          response.tid = *tid;
          session.txns.insert(*tid);
        } else {
          SetResponseStatus(tid.status(), RetryAfterUs(), &response);
        }
        break;
      }
      case MsgType::kAcquire: {
        Result<lock::RequestOutcome> outcome =
            service_->AcquireAsync(request.tid, request.rid, request.mode);
        if (outcome.ok()) {
          response.outcome = *outcome;
        } else {
          SetResponseStatus(outcome.status(), RetryAfterUs(), &response);
        }
        break;
      }
      case MsgType::kAwait:
        break;  // parked by Dispatch, never executed
      case MsgType::kCommit: {
        Status committed = service_->Commit(request.tid);
        SetResponseStatus(committed, 0, &response);
        if (committed.ok()) session.txns.erase(request.tid);
        break;
      }
      case MsgType::kAbort: {
        Status aborted = service_->Abort(request.tid);
        SetResponseStatus(aborted, 0, &response);
        if (aborted.ok()) session.txns.erase(request.tid);
        break;
      }
      case MsgType::kState: {
        Result<txn::TxnState> state = service_->State(request.tid);
        if (state.ok()) {
          response.txn_state = *state;
        } else {
          SetResponseStatus(state.status(), 0, &response);
        }
        break;
      }
      case MsgType::kSetCost:
        SetResponseStatus(service_->SetCost(request.tid, request.cost), 0,
                          &response);
        break;
      case MsgType::kDetect:
        response.detect = core::ProjectReport(service_->RunDetectionPass());
        break;
      case MsgType::kProbeDeadlock: {
        Result<bool> deadlocked = service_->HasDeadlock();
        if (deadlocked.ok()) {
          response.truth = *deadlocked;
        } else {
          SetResponseStatus(deadlocked.status(), 0, &response);
        }
        break;
      }
      case MsgType::kView: {
        Result<std::string> text = service_->RenderView(request.view);
        if (text.ok()) {
          response.text = *text;
        } else {
          SetResponseStatus(text.status(), 0, &response);
        }
        break;
      }
      case MsgType::kStats: {
        response.stats.live_txns = service_->live_transactions();
        response.stats.deadlock_victims = service_->deadlock_victims();
        response.stats.snapshot_epoch = service_->snapshot_epoch();
        response.stats.num_shards = service_->num_shards();
        response.stats.admission_rejects = service_->admission_rejects();
        response.stats.resolutions_rejected =
            service_->resolutions_rejected();
        std::scoped_lock lock(mu_);
        response.stats.sessions_active = stats_.sessions_active;
        response.stats.sessions_total = stats_.sessions_total;
        response.stats.orphan_aborts = stats_.orphan_aborts;
        break;
      }
      case MsgType::kPing:
        break;  // kOk
    }
    return response;
  }

  ServerOptions options_;
  txn::ConcurrentLockService* service_;

  // Reactor-owned once Start has spawned the reactor (see CloseListener).
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  // Reactor-only: the open sessions by fd, the sessions closed this pass
  // (fds still open, see RetireClosed), and parked awaits by transaction
  // id.
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Session>> closed_;
  std::multimap<lock::TransactionId, Session*> parked_;

  mutable std::mutex mu_;
  ServerStats stats_;  // `draining` is read from draining_ instead
  std::chrono::steady_clock::time_point drain_deadline_at_{};

  // Announced tids not yet looked at by the reactor (see Announce).
  std::mutex ready_mu_;
  std::vector<lock::TransactionId> ready_;

  std::atomic<bool> draining_{false};

  std::thread reactor_;
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Create(
    ServerOptions options, txn::ConcurrentLockService* service) {
  TWBG_RETURN_IF_ERROR(options.Validate());
  if (service == nullptr) {
    return Status::InvalidArgument("service must not be null");
  }
  return std::unique_ptr<Server>(
      new Server(std::make_unique<Impl>(std::move(options), service)));
}

Status Server::Start() { return impl_->Start(); }
uint16_t Server::port() const { return impl_->port(); }
void Server::BeginDrain() { impl_->BeginDrain(); }
void Server::Stop() { impl_->Stop(); }
void Server::Join() { impl_->Join(); }
ServerStats Server::stats() const { return impl_->stats(); }
bool Server::draining() const { return impl_->draining(); }

}  // namespace twbg::net
