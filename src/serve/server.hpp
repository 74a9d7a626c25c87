// QR-as-a-service server: a long-running TCP process that accepts
// factorization requests from many clients and executes them concurrently
// on ONE shared worker pool (runtime/dag_pool.hpp).
//
// Threading model: one accept thread (which also reaps sessions whose
// connection died, so fds and thread handles do not accumulate); per
// connection a reader thread (frame parse -> validate -> submit to the
// pool) and a writer thread (drains an outbox of encoded responses).
// Factorization DAGs never run on connection threads. A SubmitQR is a
// one-problem fused batch (serve/batch.hpp), so SubmitQR and SubmitBatch
// share one admission path and each becomes one DAG on the shared
// DagPool; a want_q request then chains the runtime's Q-formation DAG
// (q_formation, runtime/executor.hpp) on the same pool. The last DAG's
// completion callback encodes the response and enqueues it on the owning
// connection's outbox. Requests from different connections and tenants
// therefore interleave at task granularity, and a large request does not
// block a small one behind it.
//
// One deliberate exception: streaming TSQR reductions (StreamAppend) run
// inline on the connection's reader thread — stream state is
// single-threaded by construction and needs no locking. A large append
// (bounded by ServerLimits) therefore serializes with other requests
// pipelined on the SAME connection, including Cancel; clients with heavy
// streams should give them a dedicated connection.
//
// Validation happens before admission (serve/protocol.hpp): a malformed or
// out-of-contract request gets a typed ErrorReply and the connection — and
// the server — keep going.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace hqr::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ask the kernel for an ephemeral port
  int threads = 4;         // shared worker pool size
  ServerLimits limits;
  obs::MetricsRegistry* metrics = nullptr;  // optional instrumentation
};

class Server {
 public:
  // Binds and starts accepting immediately; throws hqr::Error when the
  // address cannot be bound.
  explicit Server(const ServerOptions& opts);
  ~Server();  // equivalent to stop()

  // The port actually bound (useful with port = 0).
  std::uint16_t port() const;

  // Blocks until a client sends Shutdown or another thread calls stop().
  void wait();

  // Graceful stop: reject new submissions, drain in-flight DAGs, flush
  // outboxes, join all threads. Idempotent.
  void stop();

  // Server-wide counters (same data a Status request returns).
  ServerStatus status() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hqr::serve
