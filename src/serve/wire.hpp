// Wire protocol for the distributed serve tier (DESIGN.md §17).
//
// A router process and its worker shards speak length-prefixed binary
// frames over a local byte stream (an AF_UNIX socketpair, or an
// in-process loopback queue carrying the *same serialized bytes* so
// every test exercises the full codec path without fork).  The codec is
// deliberately process-boundary-honest: nothing that crosses it holds a
// pointer, a closure, or an iteration-order dependence.
//
// Both directions carry the serve vocabulary itself.  A request crosses
// as serve::Request: its spec or pipeline travels by the name
// serve::SpecCatalog built it from (the grammar harmony-lint speaks:
// "editdist:24x24", "conv:96,8", "fft:8", ...), and every other field
// that crosses is one make_cache_key() reads, plus the two QoS fields
// (deadline, tune_workers) — so "the wire carries exactly what the key
// reads" is one equation, pinned by tests/serve_wire_test.cpp as
// make_cache_key(decode(encode(req))) == make_cache_key(req).  What the
// key cannot read cannot cross: encoding a request with a cancel hook,
// a scheduler, pre-compiled tables, a resume offset, or a spec or
// pipeline its catalog did not build (which covers distributed input
// homes) throws WireError instead of silently dropping it.  A reply
// crosses as serve::Response.
//
// Frame layout (little-endian):
//
//   [u32 length][u8 MsgType][u64 correlation id][body ...]
//                ^---------- length covers this ---------^
//
// The correlation id is chosen by the sender of a kSubmit and echoed on
// the kReply; it is also the trace id stitching the router's "route"
// span to the shard's "shard" span in one timeline.
//
// Integers are fixed-width little-endian; doubles cross as IEEE-754 bit
// patterns; strings and vectors are u32-length-prefixed.  Every decode
// is bounds-checked — a truncated or oversized frame throws WireError,
// never reads past the buffer.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/request.hpp"

namespace harmony::serve {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frames a body may not exceed (1 GiB) — a corrupt length prefix must
/// fail fast instead of driving a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

enum class MsgType : std::uint8_t {
  kSubmit = 1,    ///< router -> shard: Request body
  kReply = 2,     ///< shard -> router: Response body
  kMetricsGet = 3,///< router -> shard: empty body
  kMetrics = 4,   ///< shard -> router: WireMetrics body
  kSnapshotGet = 5,  ///< router -> shard: empty body
  kSnapshot = 6,     ///< shard -> router: CacheSnapshot bytes
  kRestore = 7,      ///< router -> shard: CacheSnapshot bytes
  kRestored = 8,     ///< shard -> router: u64 entries restored
  kShutdown = 9,     ///< router -> shard: empty body; shard exits serve()
};

struct Frame {
  MsgType type = MsgType::kSubmit;
  std::uint64_t id = 0;
  std::vector<std::uint8_t> body;
};

// ---------------------------------------------------------------------
// Primitive codec.
// ---------------------------------------------------------------------

/// Append-only little-endian encoder over a byte vector.
class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s);
  void vec_i64(const std::vector<std::int64_t>& v);
  void bytes(const std::vector<std::uint8_t>& v);

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return out_; }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    out_.insert(out_.end(), b, b + n);
  }
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian decoder; throws WireError past the end.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& v)
      : Reader(v.data(), v.size()) {}

  [[nodiscard]] std::uint8_t u8() { return *take(1); }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof v), sizeof v);
    return v;
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  [[nodiscard]] bool b() { return u8() != 0; }
  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::int64_t> vec_i64();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// Throws unless the whole buffer was consumed — trailing garbage in
  /// a frame means a codec version skew, not padding.
  void expect_end() const;

 private:
  const std::uint8_t* take(std::size_t n);
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Message bodies.
// ---------------------------------------------------------------------

class SpecCatalog;  // serve/catalog.hpp

/// Request body: the request's kind, its spec (or pipeline) by catalog
/// name, the machine, and the kind's payload — exactly the fields
/// make_cache_key reads for that kind — then deadline and tune_workers.
/// Throws WireError for anything that cannot cross (see file comment).
void encode(Writer& w, const Request& req, const SpecCatalog& catalog);

/// Rebuilds a Request, its spec or pipeline from `catalog`.  Throws
/// WireError on a malformed body, an unknown or over-budget name
/// (SpecCatalog), or a grid of more than kMaxWireGridPes PEs.
[[nodiscard]] Request decode_request(Reader& r, SpecCatalog& catalog);

/// Largest machine a request may name: far above any grid in use (64
/// PEs), far below where the compiled P x P tables or
/// GridGeometry::num_nodes() blow up.
inline constexpr std::int64_t kMaxWireGridPes = 1024;

/// Reply body: every Response field, with two abridgements.  Of an
/// exhaustive SearchResult (the reply's and each pipeline stage's) only
/// the top-1 candidate and the search counters cross, and
/// decode_response rebuilds `best.cost` from the enclosing cost
/// (Response::cost, StageResult::cost) with the candidate's own
/// makespan.  The stochastic winner (Response::strategy) and the
/// per-stage pipeline results (Response::pipeline) cross in full.
/// Delivery metadata (shard, stolen, coalesced) is not part of the
/// reply; the router stamps it on a RoutedReply.
void encode(Writer& w, const Response& resp);
[[nodiscard]] Response decode_response(Reader& r);

/// Shard metrics crossing the wire: the counter subset of
/// MetricsSnapshot plus the raw latency-bucket counts, so the router
/// can merge per-shard histograms into fleet percentiles
/// (LatencyHistogram::merge) instead of averaging percentiles — which
/// would be wrong for any non-uniform split.
struct WireMetrics {
  std::uint64_t submitted = 0, completed = 0, rejected = 0, errors = 0;
  std::uint64_t deadline_cut = 0, tunes = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_entries = 0;
  std::uint64_t compile_hits = 0, compile_misses = 0;
  std::uint64_t exec_checks = 0, exec_failures = 0;
  std::vector<std::uint64_t> latency_buckets;  ///< kNumBuckets counts
};

void encode(Writer& w, const WireMetrics& m);
[[nodiscard]] WireMetrics decode_metrics(Reader& r);
[[nodiscard]] WireMetrics to_wire(const MetricsSnapshot& snap,
                                  const std::vector<std::uint64_t>& buckets);

// ---------------------------------------------------------------------
// Identity.
// ---------------------------------------------------------------------

/// The response's wire encoding with the fields that describe *how* the
/// answer was produced (cache_hit, latency, and the lane counts
/// search/strategy.workers_used, the reply's and every pipeline
/// stage's) zeroed — two replies to one query compare byte-identical iff
/// the oracles agreed, which is the acceptance check for work-stealing
/// correctness.
[[nodiscard]] std::vector<std::uint8_t> semantic_bytes(const Response& resp);

// ---------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------

/// A bidirectional frame stream.  send() is safe to call from multiple
/// threads (internally serialized); recv() expects a single consumer.
/// Both return false once the peer closed.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual bool send(const Frame& frame) = 0;
  virtual bool recv(Frame& frame) = 0;
  virtual void close() = 0;
};

struct ChannelPair {
  std::shared_ptr<Channel> left;
  std::shared_ptr<Channel> right;
};

/// In-process transport: two cross-linked bounded queues moving
/// serialized Frame objects.  Same codec, no fd — every test can run
/// the full router/worker stack without fork and under TSan.
[[nodiscard]] ChannelPair make_loopback_pair();

/// AF_UNIX socketpair transport: frames cross a real kernel byte
/// stream, partial reads/writes and EINTR handled.  Either endpoint may
/// be handed to a forked child via channel_from_fd().
[[nodiscard]] ChannelPair make_socket_pair();

/// Wraps an existing stream fd (e.g. the surviving end of a socketpair
/// after fork) in a Channel.  Takes ownership; closes on destruction.
[[nodiscard]] std::shared_ptr<Channel> channel_from_fd(int fd);

}  // namespace harmony::serve
