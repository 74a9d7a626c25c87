// Unified execution tracing for the shared-memory runtime, the cluster
// simulator and the distributed runtime — the repository's DAGuE-profiling
// analogue (paper §V explains every win/loss through task timelines; this
// layer records them).
//
// One TraceEvent per executed task: kernel type, tile coordinates, the lane
// it ran on (worker thread in the runtime; node/core in the simulator), and
// start/end times. Dependencies are not duplicated
// into the trace: `task` indexes the TaskGraph the run executed, which the
// analyzer (obs/analyzer.hpp) uses to recover them.
//
// Distributed runs additionally record one FlowEvent per inter-rank tile
// transfer: the sending rank stamps the Data post, the receiving rank stamps
// the arrival, and merge_rank_traces pairs the two halves (after applying
// each rank's clock offset) into arrows the Perfetto export draws from the
// producer's slice to the first consumer task on the destination rank.
//
// Recording is near-zero-cost when disabled (producers hold a nullable
// TraceRecorder*) and lock-free when enabled: each lane appends to its own
// buffer, so concurrent workers never contend. Flow events are the one
// exception — they are produced by both the worker pool and the
// communication thread, so they go through a small mutex; there are orders
// of magnitude fewer messages than tasks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernels/weights.hpp"

namespace hqr::obs {

struct TraceEvent {
  std::int32_t task = -1;  // index into the executed TaskGraph (-1: unknown)
  std::int32_t lane = 0;   // worker thread (runtime) or node (simulator)
  std::int32_t sub = 0;    // core within the lane (0 in runtime)
  KernelType type = KernelType::GEQRT;
  // Tile coordinates of the kernel (KernelOp fields); -1 when not recorded.
  std::int32_t row = -1;
  std::int32_t piv = -1;
  std::int32_t k = -1;
  std::int32_t j = -1;
  double start = 0.0;  // seconds from run start (wall or simulated)
  double end = 0.0;
};

// One inter-rank message: the Data frame carrying the producer task's output
// tile regions from its owner to a rank that consumes them. Each side of the
// wire records its half (send_time on the source rank's timeline, recv_time
// plus the first released consumer task on the destination's);
// merge_rank_traces fuses the halves onto the common clock.
struct FlowEvent {
  std::int32_t producer = -1;   // producer task index (the Data frame id)
  std::int32_t src_rank = -1;   // owner of the producer task
  std::int32_t dest_rank = -1;  // rank the payload was shipped to
  std::int32_t consumer = -1;   // first dest-local task it released (-1: n/a)
  double send_time = -1.0;      // seconds; -1 marks a missing half
  double recv_time = -1.0;

  bool complete() const { return send_time >= 0.0 && recv_time >= 0.0; }
};

// Human-readable task label, e.g. "TSMQR(3,1,0;j=2)".
std::string event_label(const TraceEvent& e);

class TraceRecorder {
 public:
  TraceRecorder()
      : buffers_(1), flow_mu_(std::make_unique<std::mutex>()) {}

  // Grows the number of lane buffers (never shrinks, never drops events).
  // Call before handing the recorder to `n` concurrent producers.
  void ensure_lanes(int n);
  int lanes() const { return static_cast<int>(buffers_.size()); }

  // Display names for the lane/sub dimensions in exported traces
  // ("node"/"core" in the simulator, "worker"/"" in the runtime).
  void set_labels(std::string lane, std::string sub) {
    lane_label_ = std::move(lane);
    sub_label_ = std::move(sub);
  }
  const std::string& lane_label() const { return lane_label_; }
  const std::string& sub_label() const { return sub_label_; }

  // Offset of this trace's time zero on the cluster reference clock (rank
  // 0's): trace origin in monotonic_seconds() terms plus the clock-sync
  // offset. merge_rank_traces subtracts the smallest offset across ranks, so
  // per-rank timestamps land on one causally consistent timeline. Zero for
  // single-process traces.
  void set_clock_offset(double seconds) { clock_offset_ = seconds; }
  double clock_offset() const { return clock_offset_; }

  // Appends an event to lane buffer `lane_buf`. Safe to call concurrently
  // from different lane buffers; a single buffer must have one producer.
  void record(int lane_buf, const TraceEvent& e) {
    buffers_[static_cast<std::size_t>(lane_buf)].push_back(e);
  }
  // Single-producer convenience (buffer 0).
  void add(const TraceEvent& e) { record(0, e); }

  // Flow halves. Thread-safe (worker pool and communication thread both
  // produce them).
  void record_flow_send(std::int32_t producer, std::int32_t src_rank,
                        std::int32_t dest_rank, double send_time);
  void record_flow_recv(std::int32_t producer, std::int32_t src_rank,
                        std::int32_t dest_rank, std::int32_t consumer,
                        double recv_time);
  // Appends a flow verbatim (merge/load path).
  void add_flow(const FlowEvent& f);

  std::size_t flow_count() const;
  std::size_t complete_flow_count() const;
  // Snapshot of all flows (halves included), in recording order.
  std::vector<FlowEvent> flows() const;

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  // Latest event end time (0 when empty).
  double makespan() const;

  // All events merged across lane buffers, sorted by (start, lane, sub).
  std::vector<TraceEvent> sorted_events() const;

  // CSV export, header: task,lane,sub,kernel,start,end,row,piv,k,j.
  // Metadata rides in leading-'#' lines after the header: `#lanes,N`,
  // `#clock_offset,S`, and one `#flow,...` line per flow event, so a
  // save/load round-trip preserves lane identity, the clock offset and the
  // message flows. Throws hqr::Error when the file cannot be opened or the
  // write fails.
  void save_csv(const std::string& path) const;

  // Chrome trace-event JSON (load in Perfetto: https://ui.perfetto.dev or
  // chrome://tracing). One complete ("ph":"X") event per task; lanes become
  // processes, cores/workers become named threads. Complete flow events
  // export as "s"/"f" arrows from the producer task's slice to the consumer
  // task's slice. Throws hqr::Error on write failure.
  void save_chrome_json(const std::string& path) const;
  void write_chrome_json(std::ostream& os) const;

  // Dispatches on extension: ".json" -> Chrome/Perfetto JSON, else CSV.
  void save(const std::string& path) const;

 private:
  std::vector<std::vector<TraceEvent>> buffers_;
  std::string lane_label_ = "lane";
  std::string sub_label_ = "unit";
  double clock_offset_ = 0.0;
  // unique_ptr keeps the recorder movable (it is returned by value from the
  // load/merge helpers); flows_ is guarded by *flow_mu_.
  std::unique_ptr<std::mutex> flow_mu_;
  std::vector<FlowEvent> flows_;
};

// Largest lane count load_trace_csv accepts (from `#lanes,N` or a row's
// lane + 1): far above any host's workers or any simulated cluster (the
// fault sweep's 1024 nodes), and small enough that a hostile file cannot
// make the loader allocate more than a few MB of empty lane buffers.
inline constexpr int kMaxTraceLanes = 1 << 16;

// Parses a CSV written by TraceRecorder::save_csv back into a recorder,
// restoring per-lane buffers, the clock offset and flow events from the
// metadata lines. The file is untrusted: every malformed row, non-numeric
// or out-of-range field and lane count above kMaxTraceLanes throws an
// hqr::Error naming the file, before anything is allocated for it.
TraceRecorder load_trace_csv(const std::string& path);

// Merges one trace CSV per rank (csv_paths[r] = rank r's worker-lane trace)
// into a single recorder whose lane is the *rank* and whose sub is the
// source worker lane — so the Perfetto export shows one process row per
// rank with one thread track per worker. Each rank's timestamps are shifted
// by its clock offset (normalized so the earliest rank starts at its
// recorded time), and matching flow halves — send stamped by the source
// rank, receive by the destination — are paired into complete FlowEvents.
// The distributed quickstart uses this to fuse per-rank traces into one
// cluster-wide timeline.
TraceRecorder merge_rank_traces(const std::vector<std::string>& csv_paths);

}  // namespace hqr::obs
