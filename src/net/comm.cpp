#include "net/comm.hpp"

#include <algorithm>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>

#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "net/control.hpp"

namespace hqr::net {

Comm::Comm(int rank, std::vector<Fd> peers, Fd control, int incarnation)
    : rank_(rank),
      peers_(std::move(peers)),
      control_(std::move(control)),
      incarnation_(incarnation) {
  HQR_CHECK(rank_ >= 0 && rank_ < static_cast<int>(peers_.size()),
            "rank " << rank_ << " outside communicator of size "
                    << peers_.size());
  for (int q = 0; q < size(); ++q) {
    if (q == rank_) continue;
    HQR_CHECK(peers_[q].valid(), "missing socket for peer rank " << q);
    set_nonblocking(peers_[q].get());
  }
  send_.resize(peers_.size());
  recv_.resize(peers_.size());
  down_.assign(peers_.size(), 0);
  down_epoch_.assign(peers_.size(), 0);
  epoch_.assign(peers_.size(), 0);
  paused_until_.assign(peers_.size(), 0.0);
}

void Comm::enable_fault_tolerance(CommFaultHooks hooks) {
  fault_mode_ = true;
  hooks_ = std::move(hooks);
  if (control_.valid()) set_nonblocking(control_.get());
}

void Comm::sever_link(int q) {
  HQR_CHECK(q >= 0 && q < size() && q != rank_, "bad link peer " << q);
  // Called from a worker thread: the communication thread may be swapping
  // in a re-wired socket for q (handle_control) under the same lock.
  std::lock_guard<std::mutex> lk(send_mu_);
  ::shutdown(peers_[static_cast<std::size_t>(q)].get(), SHUT_RDWR);
}

void Comm::pause_peer(int q, double seconds) {
  HQR_CHECK(q >= 0 && q < size() && q != rank_, "bad link peer " << q);
  std::lock_guard<std::mutex> lk(send_mu_);
  if (paused_until_[static_cast<std::size_t>(q)] == 0.0) ++paused_links_;
  paused_until_[static_cast<std::size_t>(q)] =
      monotonic_seconds() + (seconds > 0 ? seconds : 0.0);
}

void Comm::post(int dest, Tag tag, std::int32_t id, const void* payload,
                std::size_t bytes) {
  HQR_CHECK(dest >= 0 && dest < size() && dest != rank_,
            "bad destination rank " << dest);
  FrameHeader h;
  h.tag = static_cast<std::uint32_t>(tag);
  h.src = rank_;
  h.id = id;
  h.bytes = bytes;
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + bytes);
  encode_header(h, frame.data());
  if (bytes > 0) std::memcpy(frame.data() + kFrameHeaderBytes, payload, bytes);
  const long long frame_bytes = static_cast<long long>(frame.size());
  std::lock_guard<std::mutex> lk(send_mu_);
  if (down_[static_cast<std::size_t>(dest)]) {
    // The peer is between death and re-wire: the frame would only error the
    // socket again. The SentTileLog replay after ReplacePeer re-delivers
    // the payloads that matter; everything else (telemetry, control) is
    // droppable by design.
    ++counters_.frames_dropped_peer_down;
    return;
  }
  send_[static_cast<std::size_t>(dest)].frames.push_back(std::move(frame));
  ++pending_frames_;
  pending_bytes_ += frame_bytes;
  if (tag == Tag::Data) {
    ++counters_.data_messages_sent;
    counters_.data_bytes_sent += static_cast<long long>(bytes);
  } else {
    ++counters_.control_messages_sent;
    counters_.control_bytes_sent += static_cast<long long>(bytes);
  }
  ++counters_.messages_sent_by_tag[static_cast<std::size_t>(tag_index(tag))];
  counters_.bytes_sent_by_tag[static_cast<std::size_t>(tag_index(tag))] +=
      static_cast<long long>(bytes);
}

bool Comm::flushed() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_frames_ == 0;
}

CommCounters Comm::counters_snapshot() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return counters_;
}

long long Comm::send_queue_frames() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_frames_;
}

long long Comm::send_queue_bytes() const {
  std::lock_guard<std::mutex> lk(send_mu_);
  return pending_bytes_;
}

// Caller holds send_mu_. Discards q's queued frames, keeping the pending
// gauges consistent (the front frame may be partially written).
void Comm::drop_queue_locked(int q) {
  SendState& s = send_[static_cast<std::size_t>(q)];
  for (std::size_t i = 0; i < s.frames.size(); ++i) {
    --pending_frames_;
    pending_bytes_ -= static_cast<long long>(s.frames[i].size() -
                                             (i == 0 ? s.offset : 0));
    ++counters_.frames_dropped_peer_down;
  }
  s.frames.clear();
  s.offset = 0;
}

// Caller holds send_mu_. Discards the peer's send queue (those frames can
// never be written; the replay path re-delivers what matters) and closes
// the receive side so pump() stops polling the dead descriptor.
void Comm::mark_peer_down_locked(int q) {
  if (down_[static_cast<std::size_t>(q)]) return;
  down_[static_cast<std::size_t>(q)] = 1;
  // Stamp the epoch at detection time: a LinkDown report must carry the
  // incarnation of the link that actually died, not whatever a later
  // ReplacePeer may have installed by the time the pump ships the report
  // (the launcher would mistake it for a fresh failure and re-wire twice).
  down_epoch_[static_cast<std::size_t>(q)] = epoch_[static_cast<std::size_t>(q)];
  ++counters_.peers_down;
  drop_queue_locked(q);
  RecvState& r = recv_[static_cast<std::size_t>(q)];
  r.closed = true;
  r.header_got = 0;
  r.payload.clear();
  r.payload_got = 0;
}

bool Comm::flush_peer(int q) {
  std::lock_guard<std::mutex> lk(send_mu_);
  SendState& s = send_[static_cast<std::size_t>(q)];
  while (!s.frames.empty()) {
    const std::vector<std::uint8_t>& f = s.frames.front();
    const std::size_t want = f.size() - s.offset;
    std::ptrdiff_t wrote = 0;
    if (fault_mode_) {
      try {
        wrote = write_some(peers_[static_cast<std::size_t>(q)].get(),
                           f.data() + s.offset, want);
      } catch (const std::exception&) {
        // EPIPE/ECONNRESET: the peer died under us mid-write.
        mark_peer_down_locked(q);
        return true;
      }
    } else {
      wrote = write_some(peers_[static_cast<std::size_t>(q)].get(),
                         f.data() + s.offset, want);
    }
    s.offset += static_cast<std::size_t>(wrote);
    pending_bytes_ -= static_cast<long long>(wrote);
    if (s.offset < f.size()) return false;  // kernel buffer full
    s.frames.pop_front();
    s.offset = 0;
    --pending_frames_;
  }
  return false;
}

bool Comm::drain_peer(int q, std::vector<Message>& out) {
  RecvState& r = recv_[static_cast<std::size_t>(q)];
  const int fd = peers_[static_cast<std::size_t>(q)].get();
  const auto peer_died = [&]() {
    std::lock_guard<std::mutex> lk(send_mu_);
    mark_peer_down_locked(q);
    return true;
  };
  for (;;) {
    if (r.header_got < kFrameHeaderBytes) {
      std::ptrdiff_t got = 0;
      if (fault_mode_) {
        try {
          got = read_some(fd, r.header_raw + r.header_got,
                          kFrameHeaderBytes - r.header_got);
        } catch (const std::exception&) {
          return peer_died();
        }
        if (got < 0) return peer_died();
      } else {
        got = read_some(fd, r.header_raw + r.header_got,
                        kFrameHeaderBytes - r.header_got);
        if (got < 0) {
          HQR_CHECK(eof_ok_ && r.header_got == 0,
                    "rank " << q << " closed the connection mid-stream");
          r.closed = true;
          return false;
        }
      }
      if (got == 0) return false;
      r.header_got += static_cast<std::size_t>(got);
      if (r.header_got < kFrameHeaderBytes) return false;
      r.header = decode_header(r.header_raw);
      HQR_CHECK(r.header.magic != kMagicSwapped,
                "frame magic from rank "
                    << q << " is byte-swapped: peer serialized with the "
                    << "opposite byte order (pre-v2 wire format?)");
      HQR_CHECK(r.header.magic == kMagic, "bad frame magic from rank " << q);
      HQR_CHECK(r.header.version == kWireVersion,
                "wire version mismatch: rank " << q << " speaks v"
                                               << r.header.version
                                               << ", this build speaks v"
                                               << kWireVersion);
      HQR_CHECK(r.header.header_bytes == kFrameHeaderBytes,
                "frame header size mismatch from rank "
                    << q << " (" << r.header.header_bytes << " != "
                    << kFrameHeaderBytes << ")");
      HQR_CHECK(valid_tag(r.header.tag),
                "unknown tag " << r.header.tag << " from rank " << q);
      HQR_CHECK(r.header.bytes < kMaxFrameBytes,
                "implausible frame size from rank " << q);
      r.payload.resize(static_cast<std::size_t>(r.header.bytes));
      r.payload_got = 0;
    }
    if (r.payload_got < r.payload.size()) {
      std::ptrdiff_t got = 0;
      if (fault_mode_) {
        try {
          got = read_some(fd, r.payload.data() + r.payload_got,
                          r.payload.size() - r.payload_got);
        } catch (const std::exception&) {
          return peer_died();
        }
        if (got < 0) return peer_died();
      } else {
        got = read_some(fd, r.payload.data() + r.payload_got,
                        r.payload.size() - r.payload_got);
        HQR_CHECK(got >= 0,
                  "rank " << q << " closed the connection mid-frame");
      }
      if (got == 0) return false;
      r.payload_got += static_cast<std::size_t>(got);
      if (r.payload_got < r.payload.size()) return false;
    }
    Message m;
    m.tag = static_cast<Tag>(r.header.tag);
    m.src = r.header.src;
    m.id = r.header.id;
    m.payload = std::move(r.payload);
    r.payload.clear();
    r.header_got = 0;
    r.payload_got = 0;
    {
      // Same lock post() bumps the send counters under: the telemetry
      // heartbeat snapshots counters mid-run from another thread, and an
      // unlocked recv-side update here could be observed torn.
      std::lock_guard<std::mutex> lk(send_mu_);
      if (m.tag == Tag::Data) {
        ++counters_.data_messages_recv;
        counters_.data_bytes_recv += static_cast<long long>(m.payload.size());
      } else {
        ++counters_.control_messages_recv;
        counters_.control_bytes_recv +=
            static_cast<long long>(m.payload.size());
      }
      const auto ti = static_cast<std::size_t>(tag_index(m.tag));
      ++counters_.messages_recv_by_tag[ti];
      counters_.bytes_recv_by_tag[ti] +=
          static_cast<long long>(m.payload.size());
    }
    out.push_back(std::move(m));
  }
}

// Drains every ReplacePeer waiting on the control channel and installs the
// passed descriptors; collects the re-wired peers for the caller's hook
// invocations. Runs on the pump thread.
void Comm::handle_control(std::vector<int>& replaced) {
  for (;;) {
    pollfd p{};
    p.fd = control_.get();
    p.events = POLLIN;
    const int rc = ::poll(&p, 1, 0);
    if (rc <= 0 || !(p.revents & (POLLIN | POLLHUP))) return;
    ControlMsg m;
    Fd passed;
    bool got = false;
    try {
      got = recv_control(control_.get(), &m, &passed,
                         monotonic_seconds() + 5.0);
    } catch (const std::exception&) {
      // ECONNRESET: the launcher's end closed with unread data (it tore
      // down after a failure elsewhere). Same meaning as the clean EOF.
    }
    if (!got) {
      control_.reset();  // launcher gone; PDEATHSIG will reap us anyway
      return;
    }
    if (static_cast<ControlOp>(m.op) != ControlOp::ReplacePeer) continue;
    const int q = m.peer;
    HQR_CHECK(q >= 0 && q < size() && q != rank_ && passed.valid(),
              "malformed ReplacePeer control message (peer " << q << ")");
    set_nonblocking(passed.get());
    {
      std::lock_guard<std::mutex> lk(send_mu_);
      peers_[static_cast<std::size_t>(q)] = std::move(passed);
      // The other endpoint may have reported the death first: frames can
      // still be queued here even though we never observed the failure.
      // They predate the re-wire, so they drop like any down-window frame.
      drop_queue_locked(q);
      RecvState& r = recv_[static_cast<std::size_t>(q)];
      r.closed = false;
      r.header_got = 0;
      r.payload.clear();
      r.payload_got = 0;
      down_[static_cast<std::size_t>(q)] = 0;
      ++epoch_[static_cast<std::size_t>(q)];
      ++counters_.peers_replaced;
    }
    // Several re-wires of one link drained together install only the
    // last; the hook replays history once into that link.
    if (std::find(replaced.begin(), replaced.end(), q) == replaced.end())
      replaced.push_back(q);
  }
}

int Comm::pump(int timeout_ms, const std::function<void(Message&&)>& on_msg) {
  std::vector<pollfd> fds;
  std::vector<int> who;
  fds.reserve(peers_.size() + 1);
  who.reserve(peers_.size() + 1);
  {
    std::lock_guard<std::mutex> lk(send_mu_);
    if (paused_links_ > 0) {
      const double now = monotonic_seconds();
      for (int q = 0; q < size(); ++q) {
        double& until = paused_until_[static_cast<std::size_t>(q)];
        if (until > 0.0 && now >= until) {
          until = 0.0;
          --paused_links_;
        }
      }
    }
    for (int q = 0; q < size(); ++q) {
      if (q == rank_ || recv_[static_cast<std::size_t>(q)].closed) continue;
      pollfd p{};
      p.fd = peers_[static_cast<std::size_t>(q)].get();
      p.events = POLLIN;
      if (!send_[static_cast<std::size_t>(q)].frames.empty() &&
          paused_until_[static_cast<std::size_t>(q)] == 0.0)
        p.events |= POLLOUT;
      fds.push_back(p);
      who.push_back(q);
    }
  }
  if (fault_mode_ && control_.valid()) {
    pollfd p{};
    p.fd = control_.get();
    p.events = POLLIN;
    fds.push_back(p);
    who.push_back(-1);  // sentinel: the control channel
  }
  if (fds.empty()) return 0;
  const int rc = ::poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0) {
    HQR_CHECK(errno == EINTR, "poll: " << std::strerror(errno));
    // A signal cut the wait short, and the pollfd snapshot above may
    // predate frames post()ed while we slept (their fds would then lack
    // POLLOUT). Flush whatever is pending now instead of stranding those
    // sends until the next unrelated wakeup.
    for (const int q : who)
      if (q >= 0) flush_peer(q);
    return 0;
  }
  if (rc == 0) return 0;

  std::vector<Message> delivered;
  std::vector<int> went_down;
  std::vector<int> replaced;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (who[i] < 0) {
      if (fds[i].revents & (POLLIN | POLLHUP)) handle_control(replaced);
      continue;
    }
    bool dead = false;
    if (fds[i].revents & POLLOUT) dead = flush_peer(who[i]);
    if (!dead && (fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
      dead = drain_peer(who[i], delivered);
    if (dead) went_down.push_back(who[i]);
  }
  for (Message& m : delivered) on_msg(std::move(m));
  for (const int q : replaced)
    if (hooks_.on_peer_replaced) hooks_.on_peer_replaced(q);
  for (const int q : went_down) {
    if (control_.valid()) {
      try {
        send_control(control_.get(), ControlOp::LinkDown, q,
                     down_epoch_[static_cast<std::size_t>(q)]);
      } catch (const std::exception&) {
        control_.reset();  // launcher gone
      }
    }
    if (hooks_.on_peer_down) hooks_.on_peer_down(q);
  }
  return static_cast<int>(delivered.size());
}

}  // namespace hqr::net
