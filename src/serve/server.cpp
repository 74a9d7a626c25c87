#include "serve/server.hpp"

#include <poll.h>

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/factorization.hpp"
#include "core/incremental_tsqr.hpp"
#include "linalg/tiled_matrix.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "runtime/dag_pool.hpp"
#include "runtime/executor.hpp"
#include "serve/batch.hpp"

namespace hqr::serve {

namespace {

using net::FrameHeader;
using net::Tag;

constexpr double kIoDeadlineSeconds = 60.0;

struct Response {
  Tag tag;
  std::int32_t id;
  std::vector<std::uint8_t> payload;
};

// Waits up to `ms` for the socket to become readable; false on timeout.
bool wait_readable(int fd, int ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  return ::poll(&pfd, 1, ms) > 0;
}

}  // namespace

// Connection state shared between the reader thread and the pool's
// completion callbacks. Kept behind a shared_ptr so a callback firing after
// the connection died just drops its response.
struct SessionShared {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Response> outbox;
  bool closed = false;  // reader gone: drop new responses, writer drains out
  std::unordered_map<std::int32_t, DagId> pending;  // request id -> DAG

  void push(Tag tag, std::int32_t id, std::vector<std::uint8_t> payload) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (closed) return;
      outbox.push_back({tag, id, std::move(payload)});
    }
    cv.notify_one();
  }
};

struct Server::Impl {
  explicit Impl(const ServerOptions& o) : opts(o) {
    HQR_CHECK(opts.threads >= 1, "server needs at least one worker thread");
    DagPoolOptions popts;
    popts.threads = opts.threads;
    popts.max_active_dags = opts.limits.max_active_dags;
    popts.metrics = opts.metrics;
    pool = std::make_unique<DagPool>(popts);
    bound_port = opts.port;
    listener = net::tcp_listen(opts.host, &bound_port);
    accept_thread = std::thread([this] { accept_loop(); });
  }

  ~Impl() { stop_all(); }

  // ---- lifecycle ----

  void accept_loop() {
    while (!stopping.load(std::memory_order_acquire)) {
      reap_dead_sessions();
      if (!wait_readable(listener.get(), 200)) continue;
      net::Fd fd;
      try {
        fd = net::tcp_accept(listener.get(), monotonic_seconds() + 1.0);
      } catch (const Error&) {
        continue;  // raced with a client that gave up, or a spurious wake
      }
      net::set_tcp_nodelay(fd.get());
      auto session = std::make_unique<Session>();
      session->shared = std::make_shared<SessionShared>();
      session->fd = std::move(fd);
      Session* s = session.get();
      session->writer = std::thread([this, s] {
        writer_loop(s);
        s->writer_done.store(true, std::memory_order_release);
      });
      session->reader = std::thread([this, s] { reader_loop(s); });
      std::lock_guard<std::mutex> lk(sessions_mu);
      sessions.push_back(std::move(session));
    }
  }

  // Joins and frees sessions whose connection already died, so a
  // long-running server does not keep one fd and two thread handles per
  // connection ever accepted. Runs on the accept thread between accepts.
  // Draining (Shutdown) sessions are left for stop_all(), which flushes
  // their in-flight results before closing the outbox.
  void reap_dead_sessions() {
    std::vector<std::unique_ptr<Session>> done;
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      auto it = sessions.begin();
      while (it != sessions.end()) {
        Session& s = **it;
        if (s.dead.load(std::memory_order_acquire) &&
            s.writer_done.load(std::memory_order_acquire) &&
            !s.draining.load(std::memory_order_acquire)) {
          done.push_back(std::move(*it));
          it = sessions.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& s : done) {
      if (s->reader.joinable()) s->reader.join();
      if (s->writer.joinable()) s->writer.join();
    }
  }

  void stop_all() {
    bool expected = false;
    if (!stop_once.compare_exchange_strong(expected, true)) return;
    stopping.store(true, std::memory_order_release);
    request_stop();  // unblock wait()
    if (accept_thread.joinable()) accept_thread.join();
    std::vector<std::unique_ptr<Session>> doomed;
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      doomed.swap(sessions);
    }
    // Readers stop FIRST so nothing can be admitted after the drain below
    // (a reader stopped this way keeps its pending DAGs running — see
    // reader_loop's graceful path).
    for (auto& s : doomed) {
      s->stop.store(true, std::memory_order_release);
      if (s->reader.joinable()) s->reader.join();
    }
    // Drain in-flight DAGs AND their completion callbacks: wait_all()
    // returns only once every on_done has run, so each accepted request's
    // reply is in its outbox and no late callback (e.g. the chained
    // Q-formation submit) can race pool destruction.
    pool->wait_all();
    for (auto& s : doomed) {
      // Everything in flight has been delivered to the outbox by now;
      // close it so the writer exits once the tail is flushed.
      {
        std::lock_guard<std::mutex> lk(s->shared->mu);
        s->shared->closed = true;
      }
      s->shared->cv.notify_all();
      if (s->writer.joinable()) s->writer.join();
    }
    pool.reset();
  }

  void request_stop() {
    {
      std::lock_guard<std::mutex> lk(stop_mu);
      stop_requested = true;
    }
    stop_cv.notify_all();
  }

  void wait_stop() {
    std::unique_lock<std::mutex> lk(stop_mu);
    stop_cv.wait(lk, [&] { return stop_requested; });
  }

  // ---- per-connection threads ----

  struct Session {
    net::Fd fd;
    std::shared_ptr<SessionShared> shared;
    std::thread reader;
    std::thread writer;
    std::atomic<bool> stop{false};
    // Set when the reader exits because of a Shutdown request: in-flight
    // DAGs drain and their results flush instead of being cancelled.
    std::atomic<bool> draining{false};
    // Reader exited (connection gone or stop requested): the session is a
    // candidate for reaping once the writer finished too.
    std::atomic<bool> dead{false};
    std::atomic<bool> writer_done{false};
  };

  void writer_loop(Session* s) {
    auto& sh = *s->shared;
    for (;;) {
      Response r;
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] { return !sh.outbox.empty() || sh.closed; });
        if (sh.outbox.empty()) return;  // closed and fully drained
        r = std::move(sh.outbox.front());
        sh.outbox.pop_front();
      }
      try {
        write_frame(s->fd.get(), r.tag, /*src=*/0, r.id, r.payload,
                    monotonic_seconds() + kIoDeadlineSeconds);
      } catch (const Error&) {
        // Peer gone mid-write: stop flushing, reader will notice EOF too.
        std::lock_guard<std::mutex> lk(sh.mu);
        sh.closed = true;
        sh.outbox.clear();
        return;
      }
    }
  }

  void reader_loop(Session* s) {
    // Streaming TSQR sessions are handled inline on this thread, so the
    // map needs no lock.
    struct StreamSession {
      std::unique_ptr<IncrementalTSQR> tsqr;
      std::int64_t tenant = 0;
    };
    std::unordered_map<std::int32_t, StreamSession> streams;

    while (!s->stop.load(std::memory_order_acquire)) {
      if (!wait_readable(s->fd.get(), 200)) continue;
      FrameHeader h;
      std::vector<std::uint8_t> payload;
      try {
        h = read_frame_header(s->fd.get(),
                              monotonic_seconds() + kIoDeadlineSeconds);
        const double deadline = monotonic_seconds() + kIoDeadlineSeconds;
        if (h.bytes > static_cast<std::uint64_t>(opts.limits.max_payload_bytes)) {
          // Drained without being stored, so the frame boundary holds.
          read_frame_payload(s->fd.get(), h.bytes, deadline, nullptr);
          reject(s, h.id,
                 {ErrorCode::TooLarge,
                  "payload of " + std::to_string(h.bytes) +
                      " bytes exceeds server limit of " +
                      std::to_string(opts.limits.max_payload_bytes)});
          continue;
        }
        read_frame_payload(s->fd.get(), h.bytes, deadline, &payload);
      } catch (const Error&) {
        // EOF, read timeout, or a header out of sync with the stream: the
        // connection cannot be trusted anymore.
        break;
      }

      try {
        if (!dispatch(s, static_cast<Tag>(h.tag), h.id, payload, streams))
          break;  // Shutdown
      } catch (const Error& e) {
        // decode_* throws only on structurally broken payloads; anything
        // else reaching here is still a per-request failure, never fatal
        // to the server.
        reject(s, h.id, {ErrorCode::Malformed, e.what()});
      } catch (const std::exception& e) {
        reject(s, h.id, {ErrorCode::Internal, e.what()});
      }
    }

    // Connection died (EOF/desync): cancel what it still has in flight and
    // let the writer drain. The graceful paths — a Shutdown request or a
    // server-side stop() — instead leave the DAGs running: stop_all()
    // drains the pool, the completion callbacks enqueue their results, and
    // only then is the outbox closed.
    const bool graceful = s->draining.load(std::memory_order_acquire) ||
                          s->stop.load(std::memory_order_acquire);
    if (!graceful) {
      std::vector<DagId> orphans;
      {
        std::lock_guard<std::mutex> lk(s->shared->mu);
        s->shared->closed = true;
        for (const auto& [id, dag] : s->shared->pending)
          orphans.push_back(dag);
        s->shared->pending.clear();
      }
      for (DagId d : orphans) pool->cancel(d);
    }
    s->shared->cv.notify_all();
    s->dead.store(true, std::memory_order_release);
  }

  void reject(Session* s, std::int32_t id, const ErrorInfo& e) {
    std::vector<std::uint8_t> payload;
    encode_error(e, payload);
    s->shared->push(Tag::ErrorReply, id, std::move(payload));
    if (e.code != ErrorCode::Cancelled)
      requests_rejected.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- request handlers ----

  template <class Streams>
  bool dispatch(Session* s, Tag tag, std::int32_t id,
                const std::vector<std::uint8_t>& payload, Streams& streams) {
    switch (tag) {
      case Tag::SubmitQR: handle_submit_qr(s, id, payload); return true;
      case Tag::SubmitBatch: handle_submit_batch(s, id, payload); return true;
      case Tag::StreamOpen: handle_stream_open(s, id, payload, streams); return true;
      case Tag::StreamAppend: handle_stream_append(s, id, payload, streams); return true;
      case Tag::StreamQuery: handle_stream_query(s, id, streams); return true;
      case Tag::StreamClose: handle_stream_close(s, id, streams); return true;
      case Tag::Cancel: handle_cancel(s, id); return true;
      case Tag::Status: handle_status(s, id); return true;
      case Tag::Shutdown:
        s->draining.store(true, std::memory_order_release);
        s->shared->push(Tag::Bye, id, {});
        request_stop();
        return false;
      default:
        reject(s, id, {ErrorCode::Malformed,
                       std::string("unexpected request tag ") +
                           net::tag_name(tag)});
        return true;
    }
  }

  void note_tenant(std::int64_t tenant) {
    if (opts.metrics)
      opts.metrics
          ->counter("serve.tenant." + std::to_string(tenant) + ".requests")
          .add(1);
  }

  // Per-tenant admission: false (nothing recorded) when the tenant already
  // has max_inflight_per_tenant unfinished submits; otherwise records one.
  bool tenant_admit(std::int64_t tenant) {
    if (opts.limits.max_inflight_per_tenant <= 0) return true;
    std::lock_guard<std::mutex> lk(tenant_mu);
    int& n = tenant_inflight[tenant];
    if (n >= opts.limits.max_inflight_per_tenant) return false;
    ++n;
    return true;
  }

  // Pairs with every successful tenant_admit(), on whichever path resolves
  // the request (result, cancel, error, refused pool admission).
  void tenant_release(std::int64_t tenant) {
    if (opts.limits.max_inflight_per_tenant <= 0) return;
    std::lock_guard<std::mutex> lk(tenant_mu);
    auto it = tenant_inflight.find(tenant);
    if (it != tenant_inflight.end() && --it->second <= 0)
      tenant_inflight.erase(it);
  }

  void update_queue_gauges() {
    if (!opts.metrics) return;
    opts.metrics->gauge("serve.queue_depth")
        .set(static_cast<double>(pool->ready_tasks()));
    opts.metrics->gauge("serve.active_dags")
        .set(static_cast<double>(pool->active_dags()));
  }

  void observe_latency(const char* kind, double t0) {
    if (!opts.metrics) return;
    opts.metrics->histogram(std::string("serve.request_seconds.") + kind)
        .observe(monotonic_seconds() - t0);
  }

  bool admission_closed(Session* s, std::int32_t id) {
    if (!stopping.load(std::memory_order_acquire)) return false;
    reject(s, id, {ErrorCode::ShuttingDown, "server is shutting down"});
    return true;
  }

  // A SubmitQR is a one-problem batch: both submit handlers decode their
  // job and hand it to submit_factor; only the reply tag differs.
  void handle_submit_qr(Session* s, std::int32_t id,
                        const std::vector<std::uint8_t>& payload) {
    QRJob job;
    if (auto e = decode_submit_qr(payload, opts.limits, &job)) {
      reject(s, id, *e);
      return;
    }
    BatchJob one;
    one.tenant = job.tenant;
    one.b = job.b;
    one.ib = job.ib;
    one.tree = job.tree;
    one.priority = job.priority;
    one.problems.push_back(std::move(job.a));
    submit_factor(s, id, Tag::Result, one, job.want_q);
  }

  void handle_submit_batch(Session* s, std::int32_t id,
                           const std::vector<std::uint8_t>& payload) {
    BatchJob job;
    if (auto e = decode_submit_batch(payload, opts.limits, &job)) {
      reject(s, id, *e);
      return;
    }
    submit_factor(s, id, Tag::BatchResult, job, /*want_q=*/false);
  }

  // An admitted factor request, shared by its DAG's completion callbacks.
  struct FactorRequest {
    std::shared_ptr<SessionShared> shared;
    std::int32_t id = 0;
    Tag reply = Tag::Result;  // BatchResult for a SubmitBatch
    std::int64_t tenant = 0;
    int priority = 0;
    bool want_q = false;
    double t0 = 0.0;
    std::shared_ptr<FusedBatch> fused;
  };

  // Admits a decoded request and submits its ONE fused factor DAG (one
  // scheduler pass for the whole batch; a single problem's graph is the
  // plain TaskGraph of its kernels, since its row offset is 0).
  void submit_factor(Session* s, std::int32_t id, Tag reply,
                     const BatchJob& job, bool want_q) {
    if (admission_closed(s, id)) return;
    if (!tenant_admit(job.tenant)) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      reject(s, id,
             {ErrorCode::Overloaded,
              "tenant " + std::to_string(job.tenant) + " is at " +
                  std::to_string(opts.limits.max_inflight_per_tenant) +
                  " in-flight requests"});
      return;
    }
    note_tenant(job.tenant);

    auto req = std::make_shared<FactorRequest>();
    req->shared = s->shared;
    req->id = id;
    req->reply = reply;
    req->tenant = job.tenant;
    req->priority = job.priority;
    req->want_q = want_q;
    req->fused =
        std::make_shared<FusedBatch>(job.problems, job.b, job.tree, job.ib);
    req->t0 = monotonic_seconds();
    DagSubmitOptions sopts;
    sopts.priority = job.priority;
    sopts.on_done = [this, req](DagId, bool cancelled) {
      finish_factor(req, nullptr, cancelled);
    };
    // Register before submit: on_done can fire (and erase the entry) before
    // submit() even returns. A placeholder DagId 0 is never live, so a
    // Cancel racing this window is a harmless no-op. The accepted counters
    // also bump pre-submit so completion can never outrun them in a Status
    // snapshot; a refused submit takes them back.
    {
      std::lock_guard<std::mutex> lk(req->shared->mu);
      req->shared->pending.emplace(id, DagId{0});
    }
    const bool batch = reply == Tag::BatchResult;
    requests_accepted.fetch_add(1, std::memory_order_relaxed);
    if (batch) batches_accepted.fetch_add(1, std::memory_order_relaxed);
    std::optional<ErrorInfo> refused;
    DagId dag{0};
    try {
      dag = pool->submit(
          req->fused->graph(), req->fused->b(),
          [fused = req->fused](std::int32_t idx, TileWorkspace& ws) {
            fused->execute(idx, ws);
          },
          std::move(sopts));
    } catch (const PoolOverloaded& e) {
      requests_overloaded.fetch_add(1, std::memory_order_relaxed);
      refused = ErrorInfo{ErrorCode::Overloaded, e.what()};
    } catch (const Error&) {
      // The pool refused admission (teardown raced this request).
      refused = ErrorInfo{ErrorCode::ShuttingDown, "server is shutting down"};
    }
    if (refused) {
      requests_accepted.fetch_sub(1, std::memory_order_relaxed);
      if (batch) batches_accepted.fetch_sub(1, std::memory_order_relaxed);
      finish_request_error(*req, *refused);
      return;
    }
    repoint_pending(*req, dag);
    update_queue_gauges();
  }

  // Completion of a request's factor DAG (q == nullptr) or of its chained
  // Q-formation DAG: replies with R (and Q) or every R of a batch, or, for
  // want_q, chains Q formation as a second DAG on the same pool.
  void finish_factor(const std::shared_ptr<FactorRequest>& req,
                     const std::shared_ptr<TiledMatrix>& q, bool cancelled) {
    if (cancelled) {
      finish_request_error(*req,
                           {ErrorCode::Cancelled, "request was cancelled"});
      return;
    }
    if (req->want_q && q == nullptr) {
      chain_q_formation(req);
      return;
    }
    const FusedBatch& fused = *req->fused;
    std::vector<std::uint8_t> payload;
    if (req->reply == Tag::BatchResult) {
      std::vector<Matrix> rs;
      rs.reserve(fused.size());
      for (std::size_t p = 0; p < fused.size(); ++p) rs.push_back(fused.r(p));
      encode_batch_result(rs, payload);
      observe_latency("batch", req->t0);
      batch_problems.fetch_add(static_cast<long long>(fused.size()),
                               std::memory_order_relaxed);
    } else {
      QROutcome res;
      res.r = fused.r(0);
      if (q != nullptr) {
        const QRFactors& f = fused.factors(0);
        res.has_q = true;
        res.q = materialize(q->to_padded_matrix().block(
            0, 0, f.m(), std::min(f.m(), f.n())));
      }
      encode_result(res, payload);
      observe_latency("qr", req->t0);
    }
    finish_request(*req, req->reply, std::move(payload));
  }

  // Q formation (runtime/executor.hpp q_formation) as a second DAG on the
  // shared pool, fed by the finished factors.
  void chain_q_formation(const std::shared_ptr<FactorRequest>& req) {
    QFormation qf = q_formation(std::shared_ptr<const QRFactors>(
        req->fused, &req->fused->factors(0)));
    DagSubmitOptions sopts;
    sopts.priority = req->priority;
    // The Q DAG is the tail of an already-admitted request: it must drain
    // even when the pool is at max_active_dags refusing new submits.
    sopts.bypass_admission_limit = true;
    sopts.on_done = [this, req, q = qf.q](DagId, bool cancelled) {
      finish_factor(req, q, cancelled);
    };
    DagId dag{0};
    try {
      dag = pool->submit(qf.graph, req->fused->b(), std::move(qf.execute),
                         std::move(sopts));
    } catch (const Error&) {
      // This chained submit runs inside the factor DAG's on_done, on a pool
      // worker: if the pool is being torn down, submit() throws — answer
      // with a typed error instead of letting it escape the worker thread
      // (which would std::terminate the whole server).
      finish_request_error(
          *req, {ErrorCode::ShuttingDown, "server is shutting down"});
      return;
    }
    repoint_pending(*req, dag);
  }

  // Re-points the request's pending entry so Cancel aims at the live DAG.
  void repoint_pending(const FactorRequest& req, DagId dag) {
    std::lock_guard<std::mutex> lk(req.shared->mu);
    auto it = req.shared->pending.find(req.id);
    if (it != req.shared->pending.end()) it->second = dag;
  }

  // Resolves a pending request with its reply frame: Result or
  // BatchResult, or the ErrorReply of finish_request_error.
  void finish_request(const FactorRequest& req, Tag reply,
                      std::vector<std::uint8_t> payload) {
    tenant_release(req.tenant);
    {
      std::lock_guard<std::mutex> lk(req.shared->mu);
      req.shared->pending.erase(req.id);
    }
    if (reply != Tag::ErrorReply)
      requests_completed.fetch_add(1, std::memory_order_relaxed);
    req.shared->push(reply, req.id, std::move(payload));
    update_queue_gauges();
  }

  // Resolves a pending request to a typed ErrorReply (Cancelled,
  // ShuttingDown, ...) from a completion callback or a refused submit.
  void finish_request_error(const FactorRequest& req, const ErrorInfo& e) {
    (e.code == ErrorCode::Cancelled ? requests_cancelled : requests_rejected)
        .fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> payload;
    encode_error(e, payload);
    finish_request(req, Tag::ErrorReply, std::move(payload));
  }

  template <class Streams>
  void handle_stream_open(Session* s, std::int32_t id,
                          const std::vector<std::uint8_t>& payload,
                          Streams& streams) {
    StreamOpenReq req;
    if (auto e = decode_stream_open(payload, opts.limits, &req)) {
      reject(s, id, *e);
      return;
    }
    if (admission_closed(s, id)) return;
    if (streams.count(id) != 0) {
      reject(s, id, {ErrorCode::Malformed,
                     "stream " + std::to_string(id) + " is already open"});
      return;
    }
    auto& st = streams[id];
    st.tsqr = std::make_unique<IncrementalTSQR>(req.n, req.b);
    st.tenant = req.tenant;
    note_tenant(req.tenant);
    streams_opened.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> out;
    encode_stream_r(Matrix(0, req.n), out);  // open ack: empty R
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_append(Session* s, std::int32_t id,
                            const std::vector<std::uint8_t>& payload,
                            Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    Matrix rows;
    if (auto e = decode_stream_append(payload, it->second.tsqr->cols(),
                                      opts.limits, &rows)) {
      reject(s, id, *e);
      return;
    }
    it->second.tsqr->add_rows(rows);
    stream_rows.fetch_add(rows.rows(), std::memory_order_relaxed);
    std::vector<std::uint8_t> out;
    encode_stream_r(Matrix(0, it->second.tsqr->cols()), out);  // append ack
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_query(Session* s, std::int32_t id, Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    std::vector<std::uint8_t> out;
    encode_stream_r(it->second.tsqr->r(), out);
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  template <class Streams>
  void handle_stream_close(Session* s, std::int32_t id, Streams& streams) {
    auto it = streams.find(id);
    if (it == streams.end()) {
      reject(s, id, {ErrorCode::UnknownStream,
                     "stream " + std::to_string(id) + " is not open"});
      return;
    }
    std::vector<std::uint8_t> out;
    encode_stream_r(it->second.tsqr->r(), out);
    streams.erase(it);
    s->shared->push(Tag::StreamR, id, std::move(out));
  }

  void handle_cancel(Session* s, std::int32_t id) {
    DagId dag = 0;
    bool known = false;
    {
      std::lock_guard<std::mutex> lk(s->shared->mu);
      auto it = s->shared->pending.find(id);
      if (it != s->shared->pending.end()) {
        dag = it->second;
        known = true;
      }
    }
    if (!known) {
      reject(s, id, {ErrorCode::UnknownRequest,
                     "no pending request with id " + std::to_string(id)});
      return;
    }
    // If the DAG already finished, the Result beat the Cancel — the reply
    // is already on its way and the cancel is a harmless no-op.
    pool->cancel(dag);
  }

  void handle_status(Session* s, std::int32_t id) {
    std::vector<std::uint8_t> out;
    encode_status(snapshot(), out);
    s->shared->push(Tag::StatusReply, id, std::move(out));
  }

  ServerStatus snapshot() const {
    ServerStatus st;
    st.requests_accepted = requests_accepted.load(std::memory_order_relaxed);
    st.requests_completed = requests_completed.load(std::memory_order_relaxed);
    st.requests_rejected = requests_rejected.load(std::memory_order_relaxed);
    st.requests_cancelled = requests_cancelled.load(std::memory_order_relaxed);
    st.batches_accepted = batches_accepted.load(std::memory_order_relaxed);
    st.batch_problems = batch_problems.load(std::memory_order_relaxed);
    st.streams_opened = streams_opened.load(std::memory_order_relaxed);
    st.stream_rows = stream_rows.load(std::memory_order_relaxed);
    st.active_dags = pool->active_dags();
    st.ready_tasks = pool->ready_tasks();
    st.max_active_dags = pool->stats().max_active_dags;
    st.requests_overloaded =
        requests_overloaded.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(sessions_mu);
      st.open_sessions = static_cast<std::int64_t>(sessions.size());
    }
    return st;
  }

  ServerOptions opts;
  std::uint16_t bound_port = 0;
  net::Fd listener;
  std::unique_ptr<DagPool> pool;

  mutable std::mutex sessions_mu;
  std::vector<std::unique_ptr<Session>> sessions;
  std::thread accept_thread;

  std::atomic<bool> stopping{false};
  std::atomic<bool> stop_once{false};
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop_requested = false;

  std::atomic<long long> requests_accepted{0};
  std::atomic<long long> requests_completed{0};
  std::atomic<long long> requests_rejected{0};
  std::atomic<long long> requests_cancelled{0};
  std::atomic<long long> batches_accepted{0};
  std::atomic<long long> batch_problems{0};
  std::atomic<long long> streams_opened{0};
  std::atomic<long long> stream_rows{0};
  std::atomic<long long> requests_overloaded{0};

  // Per-tenant in-flight SubmitQR/SubmitBatch counts (admission control).
  std::mutex tenant_mu;
  std::unordered_map<std::int64_t, int> tenant_inflight;
};

Server::Server(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->bound_port; }

void Server::wait() { impl_->wait_stop(); }

void Server::stop() { impl_->stop_all(); }

ServerStatus Server::status() const { return impl_->snapshot(); }

}  // namespace hqr::serve
