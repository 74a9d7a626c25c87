#include "obs/trace.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <tuple>

#include "common/check.hpp"

namespace hqr::obs {
namespace {

// Checked open/close so a mistyped --trace path fails loudly instead of
// silently dropping the trace.
std::ofstream open_checked(const std::string& path) {
  std::ofstream f(path);
  HQR_CHECK(f.good(), "cannot open " << path << " for writing");
  return f;
}

void close_checked(std::ofstream& f, const std::string& path) {
  f.flush();
  HQR_CHECK(f.good(), "write to " << path << " failed");
}

constexpr const char* kCsvHeader = "task,lane,sub,kernel,start,end,row,piv,k,j";

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

std::string event_label(const TraceEvent& e) {
  std::ostringstream os;
  os << kernel_name(e.type);
  if (e.row >= 0) {
    os << '(' << e.row << ',' << e.piv << ',' << e.k;
    if (e.j >= 0) os << ";j=" << e.j;
    os << ')';
  }
  return os.str();
}

void TraceRecorder::ensure_lanes(int n) {
  if (n > lanes()) buffers_.resize(static_cast<std::size_t>(n));
}

void TraceRecorder::record_flow_send(std::int32_t producer,
                                     std::int32_t src_rank,
                                     std::int32_t dest_rank,
                                     double send_time) {
  FlowEvent f;
  f.producer = producer;
  f.src_rank = src_rank;
  f.dest_rank = dest_rank;
  f.send_time = send_time;
  add_flow(f);
}

void TraceRecorder::record_flow_recv(std::int32_t producer,
                                     std::int32_t src_rank,
                                     std::int32_t dest_rank,
                                     std::int32_t consumer,
                                     double recv_time) {
  FlowEvent f;
  f.producer = producer;
  f.src_rank = src_rank;
  f.dest_rank = dest_rank;
  f.consumer = consumer;
  f.recv_time = recv_time;
  add_flow(f);
}

void TraceRecorder::add_flow(const FlowEvent& f) {
  std::lock_guard<std::mutex> lk(*flow_mu_);
  flows_.push_back(f);
}

std::size_t TraceRecorder::flow_count() const {
  std::lock_guard<std::mutex> lk(*flow_mu_);
  return flows_.size();
}

std::size_t TraceRecorder::complete_flow_count() const {
  std::lock_guard<std::mutex> lk(*flow_mu_);
  std::size_t n = 0;
  for (const FlowEvent& f : flows_)
    if (f.complete()) ++n;
  return n;
}

std::vector<FlowEvent> TraceRecorder::flows() const {
  std::lock_guard<std::mutex> lk(*flow_mu_);
  return flows_;
}

std::size_t TraceRecorder::size() const {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b.size();
  return total;
}

double TraceRecorder::makespan() const {
  double m = 0.0;
  for (const auto& b : buffers_)
    for (const TraceEvent& e : b) m = std::max(m, e.end);
  return m;
}

std::vector<TraceEvent> TraceRecorder::sorted_events() const {
  std::vector<TraceEvent> all;
  all.reserve(size());
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.sub < b.sub;
            });
  return all;
}

void TraceRecorder::save_csv(const std::string& path) const {
  std::ofstream f = open_checked(path);
  f << kCsvHeader << '\n';
  f.precision(17);
  f << "#lanes," << lanes() << '\n';
  f << "#clock_offset," << clock_offset_ << '\n';
  for (const FlowEvent& fl : flows()) {
    f << "#flow," << fl.producer << ',' << fl.src_rank << ',' << fl.dest_rank
      << ',' << fl.consumer << ',' << fl.send_time << ',' << fl.recv_time
      << '\n';
  }
  for (const TraceEvent& e : sorted_events()) {
    f << e.task << ',' << e.lane << ',' << e.sub << ','
      << kernel_name(e.type) << ',' << e.start << ',' << e.end << ','
      << e.row << ',' << e.piv << ',' << e.k << ',' << e.j << '\n';
  }
  close_checked(f, path);
}

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os.precision(17);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  const std::vector<TraceEvent> events = sorted_events();
  // Metadata: name each (lane, sub) pair so Perfetto shows "node N" process
  // rows with "core C" thread tracks (runtime: "worker N").
  std::set<std::int32_t> seen_lanes;
  std::set<std::pair<std::int32_t, std::int32_t>> seen_subs;
  for (const TraceEvent& e : events) {
    if (seen_lanes.insert(e.lane).second) {
      sep();
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << e.lane
         << ",\"args\":{\"name\":\"";
      json_escape(os, lane_label_);
      os << ' ' << e.lane << "\"}}";
      sep();
      os << "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << e.lane
         << ",\"args\":{\"sort_index\":" << e.lane << "}}";
    }
    if (seen_subs.insert({e.lane, e.sub}).second) {
      sep();
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << e.lane
         << ",\"tid\":" << e.sub << ",\"args\":{\"name\":\"";
      json_escape(os, sub_label_);
      os << ' ' << e.sub << "\"}}";
    }
  }
  for (const TraceEvent& e : events) {
    sep();
    os << "{\"name\":\"";
    json_escape(os, event_label(e));
    os << "\",\"cat\":\"" << kernel_name(e.type) << "\",\"ph\":\"X\",\"ts\":"
       << e.start * 1e6 << ",\"dur\":" << (e.end - e.start) * 1e6
       << ",\"pid\":" << e.lane << ",\"tid\":" << e.sub
       << ",\"args\":{\"task\":" << e.task << ",\"row\":" << e.row
       << ",\"piv\":" << e.piv << ",\"k\":" << e.k << ",\"j\":" << e.j
       << "}}";
  }
  // Flow arrows: anchor the "s" step just inside the producer task's slice
  // and the "f" step (binding point "enclosing") just inside the consumer's,
  // so viewers draw the arrow from the end of the producing kernel on the
  // source rank to the start of the first releasing kernel on the
  // destination. The wire-level timestamps ride in args.
  std::map<std::int32_t, const TraceEvent*> by_task;
  for (const TraceEvent& e : events)
    if (e.task >= 0 && by_task.find(e.task) == by_task.end())
      by_task[e.task] = &e;
  const double eps_us = 1e-3;  // 1 ns, in trace microseconds
  long long flow_seq = 0;
  for (const FlowEvent& fl : flows()) {
    if (!fl.complete()) continue;
    auto pi = by_task.find(fl.producer);
    auto ci = by_task.find(fl.consumer);
    if (pi == by_task.end() || ci == by_task.end()) continue;
    const TraceEvent& p = *pi->second;
    const TraceEvent& c = *ci->second;
    double ts_s = p.end * 1e6 - eps_us;
    if (ts_s < p.start * 1e6) ts_s = (p.start + p.end) * 0.5e6;
    double ts_f = c.start * 1e6 + eps_us;
    if (ts_f > c.end * 1e6) ts_f = (c.start + c.end) * 0.5e6;
    const long long id = ++flow_seq;
    sep();
    os << "{\"name\":\"tile\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << id
       << ",\"ts\":" << ts_s << ",\"pid\":" << p.lane << ",\"tid\":" << p.sub
       << ",\"args\":{\"producer\":" << fl.producer
       << ",\"src_rank\":" << fl.src_rank
       << ",\"dest_rank\":" << fl.dest_rank << ",\"send\":" << fl.send_time
       << "}}";
    sep();
    os << "{\"name\":\"tile\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
       << "\"id\":" << id << ",\"ts\":" << ts_f << ",\"pid\":" << c.lane
       << ",\"tid\":" << c.sub << ",\"args\":{\"consumer\":" << fl.consumer
       << ",\"recv\":" << fl.recv_time << "}}";
  }
  os << "\n]}\n";
}

void TraceRecorder::save_chrome_json(const std::string& path) const {
  std::ofstream f = open_checked(path);
  write_chrome_json(f);
  close_checked(f, path);
}

void TraceRecorder::save(const std::string& path) const {
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0)
    save_chrome_json(path);
  else
    save_csv(path);
}

namespace {

// One line of the CSV being loaded, for error messages that name the file
// and the offending line.
struct CsvLine {
  const std::string& path;
  const std::string& text;
};

std::ostream& operator<<(std::ostream& os, const CsvLine& l) {
  return os << l.path << ": '" << l.text << "'";
}

// Splits the line into exactly `n` comma-separated fields.
std::vector<std::string> split_fields(const CsvLine& l, std::size_t n) {
  const std::size_t commas = static_cast<std::size_t>(
      std::count(l.text.begin(), l.text.end(), ','));
  HQR_CHECK(commas + 1 == n, "bad trace CSV " << l << " (" << commas + 1
                                              << " fields, want " << n << ")");
  std::vector<std::string> field;
  std::istringstream ls(l.text);
  for (std::string f; std::getline(ls, f, ',');) field.push_back(f);
  field.resize(n);  // getline yields nothing for an empty last field
  return field;
}

// Parses the whole field as a T; an empty, partly numeric or out-of-range
// field is an error.
template <typename T>
T parse(const CsvLine& l, const std::string& f) {
  T v{};
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), v);
  HQR_CHECK(!f.empty() && ec == std::errc() && end == f.data() + f.size(),
            "bad trace CSV " << l << " (bad field '" << f << "')");
  return v;
}

// A lane id or lane count from the file, bounded by `max` before anything
// is sized by it.
std::int32_t parse_lane(const CsvLine& l, const std::string& f,
                        std::int32_t max) {
  const std::int32_t v = parse<std::int32_t>(l, f);
  HQR_CHECK(v >= 0 && v <= max,
            "bad trace CSV " << l << " (lane " << v << " outside [0, " << max
                             << "])");
  return v;
}

KernelType kernel_type_from_name(const CsvLine& l, const std::string& name) {
  for (int t = 0; t < kKernelTypeCount; ++t) {
    const KernelType k = static_cast<KernelType>(t);
    if (kernel_name(k) == name) return k;
  }
  HQR_CHECK(false,
            "bad trace CSV " << l << " (unknown kernel name '" << name << "')");
}

}  // namespace

TraceRecorder load_trace_csv(const std::string& path) {
  std::ifstream f(path);
  HQR_CHECK(f.good(), "cannot open " << path << " for reading");
  std::string line;
  HQR_CHECK(std::getline(f, line) && line == kCsvHeader,
            "not a trace CSV (bad header): " << path);
  TraceRecorder rec;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    const CsvLine l{path, line};
    if (line[0] == '#') {
      if (line.compare(0, 7, "#lanes,") == 0) {
        rec.ensure_lanes(
            parse_lane(l, split_fields(l, 2)[1], kMaxTraceLanes));
      } else if (line.compare(0, 14, "#clock_offset,") == 0) {
        rec.set_clock_offset(parse<double>(l, split_fields(l, 2)[1]));
      } else if (line.compare(0, 6, "#flow,") == 0) {
        const std::vector<std::string> field = split_fields(l, 7);
        FlowEvent fl;
        fl.producer = parse<std::int32_t>(l, field[1]);
        fl.src_rank = parse<std::int32_t>(l, field[2]);
        fl.dest_rank = parse<std::int32_t>(l, field[3]);
        fl.consumer = parse<std::int32_t>(l, field[4]);
        fl.send_time = parse<double>(l, field[5]);
        fl.recv_time = parse<double>(l, field[6]);
        rec.add_flow(fl);
      }
      // Unknown '#' lines are forward-compatible comments: skip.
      continue;
    }
    const std::vector<std::string> field = split_fields(l, 10);
    TraceEvent e;
    e.task = parse<std::int32_t>(l, field[0]);
    e.lane = parse_lane(l, field[1], kMaxTraceLanes - 1);
    e.sub = parse<std::int32_t>(l, field[2]);
    e.type = kernel_type_from_name(l, field[3]);
    e.start = parse<double>(l, field[4]);
    e.end = parse<double>(l, field[5]);
    e.row = parse<std::int32_t>(l, field[6]);
    e.piv = parse<std::int32_t>(l, field[7]);
    e.k = parse<std::int32_t>(l, field[8]);
    e.j = parse<std::int32_t>(l, field[9]);
    rec.ensure_lanes(e.lane + 1);
    rec.record(e.lane, e);
  }
  return rec;
}

TraceRecorder merge_rank_traces(const std::vector<std::string>& csv_paths) {
  std::vector<TraceRecorder> ranks;
  ranks.reserve(csv_paths.size());
  for (const std::string& p : csv_paths)
    ranks.push_back(load_trace_csv(p));

  // Normalize the per-rank clock offsets so the merged timeline keeps its
  // origin near the earliest rank's time zero: shift rank r's timestamps by
  // (offset_r - min_offset). When no offsets were recorded (all zero, the
  // pre-clock-sync format) this is the identity.
  double min_offset = 0.0;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const double o = ranks[r].clock_offset();
    if (r == 0 || o < min_offset) min_offset = o;
  }

  TraceRecorder merged;
  merged.set_labels("rank", "worker");
  merged.ensure_lanes(static_cast<int>(csv_paths.size()));
  // Flow halves keyed by (producer, src, dest): every inter-rank message is
  // uniquely identified by which task's output went to which rank.
  std::map<std::tuple<std::int32_t, std::int32_t, std::int32_t>, FlowEvent>
      paired;
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const double shift = ranks[r].clock_offset() - min_offset;
    for (TraceEvent e : ranks[r].sorted_events()) {
      e.sub = e.lane;  // worker thread becomes the thread track
      e.lane = static_cast<std::int32_t>(r);
      e.start += shift;
      e.end += shift;
      merged.record(static_cast<int>(r), e);
    }
    for (FlowEvent fl : ranks[r].flows()) {
      if (fl.send_time >= 0.0) fl.send_time += shift;
      if (fl.recv_time >= 0.0) fl.recv_time += shift;
      FlowEvent& slot = paired[{fl.producer, fl.src_rank, fl.dest_rank}];
      if (slot.producer < 0) {
        slot = fl;
        continue;
      }
      if (fl.send_time >= 0.0) slot.send_time = fl.send_time;
      if (fl.recv_time >= 0.0) slot.recv_time = fl.recv_time;
      if (fl.consumer >= 0) slot.consumer = fl.consumer;
    }
  }
  for (const auto& kv : paired) merged.add_flow(kv.second);
  return merged;
}

}  // namespace hqr::obs
