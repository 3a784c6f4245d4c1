#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <deque>
#include <mutex>

namespace harmony::serve {

// ---------------------------------------------------------------------
// Primitive codec.
// ---------------------------------------------------------------------

void Writer::str(const std::string& s) {
  if (s.size() > kMaxFrameBytes) throw WireError("Writer::str: oversized");
  u32(static_cast<std::uint32_t>(s.size()));
  append(s.data(), s.size());
}

void Writer::vec_i64(const std::vector<std::int64_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (const std::int64_t x : v) i64(x);
}

void Writer::bytes(const std::vector<std::uint8_t>& v) {
  if (v.size() > kMaxFrameBytes) throw WireError("Writer::bytes: oversized");
  u32(static_cast<std::uint32_t>(v.size()));
  append(v.data(), v.size());
}

const std::uint8_t* Reader::take(std::size_t n) {
  if (n > size_ - pos_) {
    throw WireError("Reader: truncated frame (wanted " + std::to_string(n) +
                    " bytes, " + std::to_string(size_ - pos_) + " left)");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::string Reader::str() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

std::vector<std::int64_t> Reader::vec_i64() {
  const std::uint32_t n = u32();
  if (static_cast<std::size_t>(n) * 8 > remaining()) {
    throw WireError("Reader::vec_i64: length prefix exceeds frame");
  }
  std::vector<std::int64_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i64();
  return v;
}

std::vector<std::uint8_t> Reader::bytes() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = take(n);
  return std::vector<std::uint8_t>(p, p + n);
}

void Reader::expect_end() const {
  if (pos_ != size_) {
    throw WireError("Reader: " + std::to_string(size_ - pos_) +
                    " trailing bytes (codec version skew?)");
  }
}

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

namespace {

void encode_map(Writer& w, const fm::AffineMap& m) {
  w.i64(m.ti), w.i64(m.tj), w.i64(m.tk), w.i64(m.t0);
  w.i64(m.xi), w.i64(m.xj), w.i64(m.xk), w.i64(m.x0);
  w.i64(m.yi), w.i64(m.yj), w.i64(m.yk), w.i64(m.y0);
  w.i64(m.cols), w.i64(m.rows);
}

fm::AffineMap decode_map(Reader& r) {
  fm::AffineMap m;
  m.ti = r.i64(), m.tj = r.i64(), m.tk = r.i64(), m.t0 = r.i64();
  m.xi = r.i64(), m.xj = r.i64(), m.xk = r.i64(), m.x0 = r.i64();
  m.yi = r.i64(), m.yj = r.i64(), m.yk = r.i64(), m.y0 = r.i64();
  m.cols = static_cast<int>(r.i64());
  m.rows = static_cast<int>(r.i64());
  return m;
}

void encode_diag(Writer& w, const analyze::Diagnostic& d) {
  w.str(d.rule_id);
  w.u8(static_cast<std::uint8_t>(d.severity));
  w.str(d.location.op);
  w.i64(d.location.pe);
  w.i64(d.location.cycle);
  w.str(d.message);
  w.str(d.hint);
}

analyze::Diagnostic decode_diag(Reader& r) {
  analyze::Diagnostic d;
  d.rule_id = r.str();
  const std::uint8_t severity = r.u8();
  if (severity > 2) throw WireError("Diagnostic: bad severity");
  d.severity = static_cast<analyze::Severity>(severity);
  d.location.op = r.str();
  d.location.pe = static_cast<std::int32_t>(r.i64());
  d.location.cycle = r.i64();
  d.message = r.str();
  d.hint = r.str();
  return d;
}

void encode_diags(Writer& w, const std::vector<analyze::Diagnostic>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const analyze::Diagnostic& d : v) encode_diag(w, d);
}

std::vector<analyze::Diagnostic> decode_diags(Reader& r) {
  const std::uint32_t n = r.u32();
  std::vector<analyze::Diagnostic> v;
  v.reserve(std::min<std::size_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(decode_diag(r));
  return v;
}

void encode_cost(Writer& w, const fm::CostReport& c) {
  w.i64(c.makespan_cycles);
  w.f64(c.makespan.picoseconds());
  w.f64(c.compute_energy.femtojoules());
  w.f64(c.onchip_movement_energy.femtojoules());
  w.f64(c.local_access_energy.femtojoules());
  w.f64(c.dram_energy.femtojoules());
  w.u64(c.messages);
  w.u64(c.bit_hops);
  w.f64(c.total_ops);
}

fm::CostReport decode_cost(Reader& r) {
  fm::CostReport c;
  c.makespan_cycles = r.i64();
  c.makespan = Time::picoseconds(r.f64());
  c.compute_energy = Energy::femtojoules(r.f64());
  c.onchip_movement_energy = Energy::femtojoules(r.f64());
  c.local_access_energy = Energy::femtojoules(r.f64());
  c.dram_energy = Energy::femtojoules(r.f64());
  c.messages = r.u64();
  c.bit_hops = r.u64();
  c.total_ops = r.f64();
  return c;
}

void encode_legality(Writer& w, const fm::LegalityReport& l) {
  w.b(l.ok);
  w.u64(l.causality_violations);
  w.u64(l.exclusivity_violations);
  w.u64(l.storage_violations);
  w.u64(l.bandwidth_violations);
  w.i64(l.peak_live_values);
  w.i64(l.peak_live_pe);
  w.f64(l.peak_link_bits_per_cycle);
  w.i64(l.peak_link);
  encode_diags(w, l.diagnostics);
}

fm::LegalityReport decode_legality(Reader& r) {
  fm::LegalityReport l;
  l.ok = r.b();
  l.causality_violations = r.u64();
  l.exclusivity_violations = r.u64();
  l.storage_violations = r.u64();
  l.bandwidth_violations = r.u64();
  l.peak_live_values = r.i64();
  l.peak_live_pe = static_cast<std::int32_t>(r.i64());
  l.peak_link_bits_per_cycle = r.f64();
  l.peak_link = r.i64();
  l.diagnostics = decode_diags(r);
  return l;
}

/// The top-1 candidate and the search counters; `top` and `all_legal`
/// stay in-process.
void encode_search(Writer& w, const fm::SearchResult& s) {
  w.b(s.found);
  encode_map(w, s.best.map);
  w.i64(s.best.cost.makespan_cycles);
  w.f64(s.best.merit);
  w.u64(s.best.slot);
  w.u64(s.enumerated);
  w.u64(s.quick_rejected);
  w.u64(s.verify_rejected);
  w.u64(s.legal);
  w.b(s.exhausted);
  w.u64(s.next_offset);
  w.u32(s.workers_used);
}

/// `cost` is the already-decoded Response::cost, which is the best
/// candidate's cost (Response::cost doc); only its makespan crosses
/// separately.
fm::SearchResult decode_search(Reader& r, const fm::CostReport& cost) {
  fm::SearchResult s;
  s.found = r.b();
  s.best.map = decode_map(r);
  s.best.cost = cost;
  s.best.cost.makespan_cycles = r.i64();
  s.best.merit = r.f64();
  s.best.slot = r.u64();
  s.enumerated = r.u64();
  s.quick_rejected = r.u64();
  s.verify_rejected = r.u64();
  s.legal = r.u64();
  s.exhausted = r.b();
  s.next_offset = r.u64();
  s.workers_used = r.u32();
  return s;
}

}  // namespace

void encode(Writer& w, const WireRequest& req) {
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.str(req.spec);
  w.i64(req.machine_cols);
  w.i64(req.machine_rows);
  w.f64(req.cycle_ps);
  w.i64(req.pe_capacity_values);
  w.f64(req.link_bits_per_cycle);
  w.f64(req.local_access_pitch_fraction);
  w.u8(static_cast<std::uint8_t>(req.fom));
  w.u32(static_cast<std::uint32_t>(req.inputs.size()));
  for (const InputPlacement& p : req.inputs) {
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.i64(p.pe.x);
    w.i64(p.pe.y);
  }
  encode_map(w, req.map);
  w.b(req.check_storage);
  w.b(req.check_bandwidth);
  w.u64(req.max_messages);
  w.vec_i64(req.time_coeffs);
  w.vec_i64(req.space_coeffs);
  w.b(req.search_y);
  w.u64(req.quick_sample);
  w.f64(req.makespan_slack);
  w.u64(req.top_k);
  w.i64(req.deadline_ns);
  w.u32(req.tune_workers);
}

WireRequest decode_request(Reader& r) {
  WireRequest req;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::kPipelineTune)) {
    throw WireError("WireRequest: bad kind");
  }
  req.kind = static_cast<RequestKind>(kind);
  req.spec = r.str();
  req.machine_cols = r.i64();
  req.machine_rows = r.i64();
  req.cycle_ps = r.f64();
  req.pe_capacity_values = r.i64();
  req.link_bits_per_cycle = r.f64();
  req.local_access_pitch_fraction = r.f64();
  const std::uint8_t fom = r.u8();
  if (fom > 2) throw WireError("WireRequest: bad figure of merit");
  req.fom = static_cast<fm::FigureOfMerit>(fom);
  const std::uint32_t num_inputs = r.u32();
  for (std::uint32_t i = 0; i < num_inputs; ++i) {
    const std::uint8_t pk = r.u8();
    if (pk > 1) throw WireError("WireRequest: bad input placement");
    InputPlacement p;
    p.kind = static_cast<InputPlacement::Kind>(pk);
    p.pe.x = static_cast<int>(r.i64());
    p.pe.y = static_cast<int>(r.i64());
    req.inputs.push_back(p);
  }
  req.map = decode_map(r);
  req.check_storage = r.b();
  req.check_bandwidth = r.b();
  req.max_messages = r.u64();
  req.time_coeffs = r.vec_i64();
  req.space_coeffs = r.vec_i64();
  req.search_y = r.b();
  req.quick_sample = r.u64();
  req.makespan_slack = r.f64();
  req.top_k = r.u64();
  req.deadline_ns = r.i64();
  req.tune_workers = r.u32();
  return req;
}

void encode(Writer& w, const Response& resp) {
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.u8(static_cast<std::uint8_t>(resp.kind));
  w.b(resp.cache_hit);
  w.b(resp.deadline_cut);
  encode_cost(w, resp.cost);
  encode_legality(w, resp.legality);
  encode_search(w, resp.search);
  encode_diags(w, resp.lint);
  w.b(resp.exec_checked);
  encode_diags(w, resp.exec);
  w.str(resp.error);
  w.i64(resp.latency.count());
  w.i64(resp.retry_after.count());
}

Response decode_response(Reader& r) {
  Response resp;
  const std::uint8_t status = r.u8();
  if (status > 2) throw WireError("Response: bad status");
  resp.status = static_cast<Status>(status);
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(RequestKind::kPipelineTune)) {
    throw WireError("Response: bad kind");
  }
  resp.kind = static_cast<RequestKind>(kind);
  resp.cache_hit = r.b();
  resp.deadline_cut = r.b();
  resp.cost = decode_cost(r);
  resp.legality = decode_legality(r);
  resp.search = decode_search(r, resp.cost);
  resp.lint = decode_diags(r);
  resp.exec_checked = r.b();
  resp.exec = decode_diags(r);
  resp.error = r.str();
  resp.latency = std::chrono::nanoseconds(r.i64());
  resp.retry_after = std::chrono::nanoseconds(r.i64());
  return resp;
}

void encode(Writer& w, const WireMetrics& m) {
  w.u64(m.submitted);
  w.u64(m.completed);
  w.u64(m.rejected);
  w.u64(m.errors);
  w.u64(m.deadline_cut);
  w.u64(m.tunes);
  w.u64(m.cache_hits);
  w.u64(m.cache_misses);
  w.u64(m.cache_entries);
  w.u64(m.compile_hits);
  w.u64(m.compile_misses);
  w.u64(m.exec_checks);
  w.u64(m.exec_failures);
  w.u32(static_cast<std::uint32_t>(m.latency_buckets.size()));
  for (const std::uint64_t c : m.latency_buckets) w.u64(c);
}

WireMetrics decode_metrics(Reader& r) {
  WireMetrics m;
  m.submitted = r.u64();
  m.completed = r.u64();
  m.rejected = r.u64();
  m.errors = r.u64();
  m.deadline_cut = r.u64();
  m.tunes = r.u64();
  m.cache_hits = r.u64();
  m.cache_misses = r.u64();
  m.cache_entries = r.u64();
  m.compile_hits = r.u64();
  m.compile_misses = r.u64();
  m.exec_checks = r.u64();
  m.exec_failures = r.u64();
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * 8 > r.remaining()) {
    throw WireError("WireMetrics: bucket count exceeds frame");
  }
  m.latency_buckets.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) m.latency_buckets[i] = r.u64();
  return m;
}

WireMetrics to_wire(const MetricsSnapshot& snap,
                    const std::vector<std::uint64_t>& buckets) {
  WireMetrics m;
  m.submitted = snap.submitted;
  m.completed = snap.completed;
  m.rejected = snap.rejected;
  m.errors = snap.errors;
  m.deadline_cut = snap.deadline_cut;
  m.tunes = snap.tunes;
  m.cache_hits = snap.cache.hits;
  m.cache_misses = snap.cache.misses;
  m.cache_entries = snap.cache.entries;
  m.compile_hits = snap.compile_hits;
  m.compile_misses = snap.compile_misses;
  m.exec_checks = snap.exec_checks;
  m.exec_failures = snap.exec_failures;
  m.latency_buckets = buckets;
  return m;
}

// ---------------------------------------------------------------------
// Keys and identity.
// ---------------------------------------------------------------------

namespace {

constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_bytes(const std::vector<std::uint8_t>& bytes,
                         std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, bytes.data() + i, 8);
    h = mix64(h ^ chunk);
  }
  std::uint64_t tail = 0;
  if (i < bytes.size()) {
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    h = mix64(h ^ tail);
  }
  return h;
}

}  // namespace

CacheKey routing_key(const WireRequest& req) {
  WireRequest canon = req;
  // QoS, not semantics: a change of patience or lane budget must not
  // migrate the key off its warm shard.
  canon.deadline_ns = 0;
  canon.tune_workers = 0;
  Writer w;
  encode(w, canon);
  const std::vector<std::uint8_t> bytes = w.data();
  // Two independently seeded streams, the same construction as the
  // result-cache fingerprints: a 64-bit collision cannot alias a route
  // *and* a coalesce decision at once.
  return CacheKey{hash_bytes(bytes, 0xd157e1b0a7e45e21ULL),
                  hash_bytes(bytes, 0x5e9f00d5c0a1e5ceULL)};
}

std::vector<std::uint8_t> semantic_bytes(const Response& resp) {
  Response canon = resp;
  canon.cache_hit = false;
  canon.latency = std::chrono::nanoseconds{0};
  canon.search.workers_used = 0;
  Writer w;
  encode(w, canon);
  return w.take();
}

// ---------------------------------------------------------------------
// Transport: loopback.
// ---------------------------------------------------------------------

namespace {

/// Shared state of a loopback pair: inbox[e] is endpoint e's receive
/// queue.  A close from either side wakes both (a drained peer must see
/// EOF, exactly like a socket).
struct LoopbackState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Frame> inbox[2];
  bool closed = false;
};

class LoopbackChannel final : public Channel {
 public:
  LoopbackChannel(std::shared_ptr<LoopbackState> state, int endpoint)
      : state_(std::move(state)), endpoint_(endpoint) {}
  ~LoopbackChannel() override { close(); }

  bool send(const Frame& frame) override {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->closed) return false;
    state_->inbox[1 - endpoint_].push_back(frame);
    state_->cv.notify_all();
    return true;
  }

  bool recv(Frame& frame) override {
    std::unique_lock<std::mutex> lock(state_->mu);
    std::deque<Frame>& inbox = state_->inbox[endpoint_];
    state_->cv.wait(lock, [&] { return !inbox.empty() || state_->closed; });
    // Drain pending frames even after close — a socket delivers what
    // was written before the FIN, and tests rely on that parity.
    if (inbox.empty()) return false;
    frame = std::move(inbox.front());
    inbox.pop_front();
    return true;
  }

  void close() override {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->cv.notify_all();
  }

 private:
  std::shared_ptr<LoopbackState> state_;
  int endpoint_;
};

}  // namespace

ChannelPair make_loopback_pair() {
  auto state = std::make_shared<LoopbackState>();
  return ChannelPair{std::make_shared<LoopbackChannel>(state, 0),
                     std::make_shared<LoopbackChannel>(state, 1)};
}

// ---------------------------------------------------------------------
// Transport: AF_UNIX socketpair.
// ---------------------------------------------------------------------

namespace {

bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

class FdChannel final : public Channel {
 public:
  explicit FdChannel(int fd) : fd_(fd) {}
  ~FdChannel() override {
    close();
    ::close(fd_);
  }

  bool send(const Frame& frame) override {
    if (frame.body.size() > kMaxFrameBytes - 9) return false;
    // Header + body under one lock: frames from concurrent senders
    // (the worker's responder pool) never interleave on the stream.
    std::lock_guard<std::mutex> lock(send_mu_);
    Writer hdr;
    hdr.u32(static_cast<std::uint32_t>(9 + frame.body.size()));
    hdr.u8(static_cast<std::uint8_t>(frame.type));
    hdr.u64(frame.id);
    return write_all(fd_, hdr.data().data(), hdr.data().size()) &&
           write_all(fd_, frame.body.data(), frame.body.size());
  }

  bool recv(Frame& frame) override {
    std::lock_guard<std::mutex> lock(recv_mu_);
    std::uint8_t len_buf[4];
    if (!read_all(fd_, len_buf, sizeof len_buf)) return false;
    std::uint32_t len;
    std::memcpy(&len, len_buf, sizeof len);
    if (len < 9 || len > kMaxFrameBytes) return false;
    std::uint8_t hdr_buf[9];
    if (!read_all(fd_, hdr_buf, sizeof hdr_buf)) return false;
    Reader r(hdr_buf, sizeof hdr_buf);
    frame.type = static_cast<MsgType>(r.u8());
    frame.id = r.u64();
    // The length prefix is only a claim: grow the body one bounded chunk
    // at a time as bytes arrive, so memory tracks what the peer actually
    // sent, not what it announced before stalling or hanging up.
    constexpr std::size_t kChunk = std::size_t{1} << 16;
    const std::size_t body_len = len - 9;
    frame.body.clear();
    while (frame.body.size() < body_len) {
      const std::size_t have = frame.body.size();
      const std::size_t n = std::min(kChunk, body_len - have);
      frame.body.resize(have + n);
      if (!read_all(fd_, frame.body.data() + have, n)) return false;
    }
    return true;
  }

  void close() override {
    bool expected = false;
    if (shut_.compare_exchange_strong(expected, true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

 private:
  int fd_;
  std::mutex send_mu_;
  std::mutex recv_mu_;
  std::atomic<bool> shut_{false};
};

}  // namespace

ChannelPair make_socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw WireError("socketpair failed: errno " + std::to_string(errno));
  }
  return ChannelPair{std::make_shared<FdChannel>(fds[0]),
                     std::make_shared<FdChannel>(fds[1])};
}

std::shared_ptr<Channel> channel_from_fd(int fd) {
  return std::make_shared<FdChannel>(fd);
}

}  // namespace harmony::serve
