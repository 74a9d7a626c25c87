#include "serve/client.hpp"

#include <unordered_map>
#include <utility>

#include "common/stopwatch.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"

namespace hqr::serve {

using net::Tag;
using Frame = net::Message;

struct Client::Impl {
  explicit Impl(const ClientOptions& o) : opts(o) {
    fd = net::tcp_connect(opts.host, opts.port,
                          monotonic_seconds() + opts.timeout_seconds);
    net::set_tcp_nodelay(fd.get());
  }

  std::int32_t next_id() { return id_counter++; }

  void send(Tag tag, std::int32_t id,
            const std::vector<std::uint8_t>& payload) {
    write_frame(fd.get(), tag, /*src=*/-1, id, payload,
                monotonic_seconds() + opts.timeout_seconds);
  }

  Frame recv() {
    const double deadline = monotonic_seconds() + opts.timeout_seconds;
    const net::FrameHeader h = read_frame_header(fd.get(), deadline);
    HQR_CHECK(h.bytes < net::kMaxFrameBytes,
              "response frame declares " << h.bytes
                                         << " payload bytes, past the "
                                         << net::kMaxFrameBytes
                                         << "-byte frame bound");
    Frame f;
    f.tag = static_cast<Tag>(h.tag);
    f.id = h.id;
    read_frame_payload(fd.get(), h.bytes, deadline, &f.payload);
    return f;
  }

  // Blocks until a frame for `id` arrives; frames for other ids are
  // buffered (each id gets exactly one response, so the key is unique).
  Frame recv_for(std::int32_t id) {
    auto it = inbox.find(id);
    if (it != inbox.end()) {
      Frame f = std::move(it->second);
      inbox.erase(it);
      return f;
    }
    for (;;) {
      Frame f = recv();
      if (f.id == id) return f;
      inbox.emplace(f.id, std::move(f));
    }
  }

  // Unwraps a Result-or-ErrorReply frame.
  QROutcome expect_result(Frame f) {
    if (f.tag == Tag::ErrorReply) throw ServeError(decode_error(f.payload));
    HQR_CHECK(f.tag == Tag::Result,
              "unexpected " << net::tag_name(f.tag) << " response");
    return decode_result(f.payload);
  }

  Matrix expect_stream_r(Frame f) {
    if (f.tag == Tag::ErrorReply) throw ServeError(decode_error(f.payload));
    HQR_CHECK(f.tag == Tag::StreamR,
              "unexpected " << net::tag_name(f.tag) << " response");
    return decode_stream_r(f.payload);
  }

  ClientOptions opts;
  net::Fd fd;
  std::int32_t id_counter = 1;
  std::unordered_map<std::int32_t, Frame> inbox;
};

Client::Client(const ClientOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

Client::~Client() = default;

std::int32_t Client::submit_qr_async(const Matrix& a, int b, int ib,
                                     TreeChoice tree, int priority,
                                     bool want_q) {
  QRJob job;
  job.tenant = impl_->opts.tenant;
  job.b = b;
  job.ib = ib;
  job.tree = tree;
  job.priority = priority;
  job.want_q = want_q;
  job.a = a;
  std::vector<std::uint8_t> payload;
  encode_submit_qr(job, payload);
  const std::int32_t id = impl_->next_id();
  impl_->send(Tag::SubmitQR, id, payload);
  return id;
}

QROutcome Client::wait_result(std::int32_t id) {
  return impl_->expect_result(impl_->recv_for(id));
}

QROutcome Client::submit_qr(const Matrix& a, int b, int ib, TreeChoice tree,
                            int priority, bool want_q) {
  return wait_result(submit_qr_async(a, b, ib, tree, priority, want_q));
}

std::vector<Matrix> Client::submit_batch(const std::vector<Matrix>& problems,
                                         int b, int ib, TreeChoice tree,
                                         int priority) {
  BatchJob job;
  job.tenant = impl_->opts.tenant;
  job.b = b;
  job.ib = ib;
  job.tree = tree;
  job.priority = priority;
  job.problems = problems;
  std::vector<std::uint8_t> payload;
  encode_submit_batch(job, payload);
  const std::int32_t id = impl_->next_id();
  impl_->send(Tag::SubmitBatch, id, payload);
  Frame f = impl_->recv_for(id);
  if (f.tag == Tag::ErrorReply) throw ServeError(decode_error(f.payload));
  HQR_CHECK(f.tag == Tag::BatchResult,
            "unexpected " << net::tag_name(f.tag) << " response");
  return decode_batch_result(f.payload);
}

std::int32_t Client::stream_open(int n, int b) {
  StreamOpenReq req;
  req.tenant = impl_->opts.tenant;
  req.n = n;
  req.b = b;
  std::vector<std::uint8_t> payload;
  encode_stream_open(req, payload);
  const std::int32_t id = impl_->next_id();
  impl_->send(Tag::StreamOpen, id, payload);
  impl_->expect_stream_r(impl_->recv_for(id));  // open ack
  return id;
}

void Client::stream_append(std::int32_t stream, const Matrix& rows) {
  std::vector<std::uint8_t> payload;
  encode_stream_append(rows, payload);
  impl_->send(Tag::StreamAppend, stream, payload);
  impl_->expect_stream_r(impl_->recv_for(stream));  // append ack
}

Matrix Client::stream_query(std::int32_t stream) {
  impl_->send(Tag::StreamQuery, stream, {});
  return impl_->expect_stream_r(impl_->recv_for(stream));
}

Matrix Client::stream_close(std::int32_t stream) {
  impl_->send(Tag::StreamClose, stream, {});
  return impl_->expect_stream_r(impl_->recv_for(stream));
}

void Client::cancel(std::int32_t id) { impl_->send(Tag::Cancel, id, {}); }

ServerStatus Client::status() {
  const std::int32_t id = impl_->next_id();
  impl_->send(Tag::Status, id, {});
  Frame f = impl_->recv_for(id);
  if (f.tag == Tag::ErrorReply) throw ServeError(decode_error(f.payload));
  HQR_CHECK(f.tag == Tag::StatusReply,
            "unexpected " << net::tag_name(f.tag) << " response");
  return decode_status(f.payload);
}

void Client::shutdown_server() {
  const std::int32_t id = impl_->next_id();
  impl_->send(Tag::Shutdown, id, {});
  Frame f = impl_->recv_for(id);
  HQR_CHECK(f.tag == Tag::Bye,
            "unexpected " << net::tag_name(f.tag) << " response");
}

}  // namespace hqr::serve
