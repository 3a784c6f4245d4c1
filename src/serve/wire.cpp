#include "serve/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>

#include "serve/catalog.hpp"

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

/// `cost` is the already-decoded enclosing cost (Response::cost, or a
/// pipeline stage's StageResult::cost), which is the best candidate's
/// cost; only its makespan crosses separately.
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

// --- checked reads, and the request payload -------------------------

/// Reads an enum byte, rejecting anything past its last enumerator.
std::uint8_t read_enum(Reader& r, std::uint8_t last, const char* what) {
  const std::uint8_t v = r.u8();
  if (v > last) throw WireError(std::string("Request: bad ") + what);
  return v;
}

/// An i64 that must fit an int, so re-encoding stays canonical.
int read_int(Reader& r, const char* what) {
  const std::int64_t v = r.i64();
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw WireError(std::string("Request: ") + what + " out of range");
  }
  return static_cast<int>(v);
}

/// No oracle is defined on NaN or infinity.
double read_finite(Reader& r, const char* what) {
  const double v = r.f64();
  if (!std::isfinite(v)) {
    throw WireError(std::string("Request: ") + what + " is not finite");
  }
  return v;
}

/// A u32 element count whose elements take at least `min_bytes` each:
/// a count the rest of the frame cannot hold is corruption, never an
/// allocation request.
std::uint32_t read_count(Reader& r, std::size_t min_bytes, const char* what) {
  const std::uint32_t n = r.u32();
  if (static_cast<std::size_t>(n) * min_bytes > r.remaining()) {
    throw WireError(std::string(what) + ": count exceeds frame");
  }
  return n;
}

// Every machine field make_cache_key reads (mix_machine), same order.
void encode_machine(Writer& w, const fm::MachineConfig& m) {
  w.i64(m.geom.cols());
  w.i64(m.geom.rows());
  w.f64(m.geom.pitch().millimetres());
  w.u8(static_cast<std::uint8_t>(m.geom.topology()));
  const noc::TechnologyModel& t = m.geom.tech();
  w.f64(t.add_energy_per_bit_fj);
  w.f64(t.add_delay.picoseconds());
  w.f64(t.wire_energy_per_bit_mm_fj);
  w.f64(t.wire_delay_per_mm.picoseconds());
  w.f64(t.sram_cell_energy_per_bit_fj);
  w.f64(t.sram_cell_delay.picoseconds());
  w.f64(t.offchip_multiplier);
  w.f64(t.offchip_latency.picoseconds());
  w.f64(t.instruction_overhead_factor);
  w.f64(t.die.mm2());
  w.f64(m.cycle.picoseconds());
  w.i64(m.pe_capacity_values);
  w.f64(m.link_bits_per_cycle);
  w.f64(m.local_access_pitch_fraction);
}

fm::MachineConfig decode_machine(Reader& r) {
  const std::int64_t cols = r.i64();
  const std::int64_t rows = r.i64();
  if (cols < 1 || rows < 1 || cols > kMaxWireGridPes ||
      rows > kMaxWireGridPes / cols) {
    throw WireError("Request: grid must have 1.." +
                    std::to_string(kMaxWireGridPes) + " PEs");
  }
  const double pitch = read_finite(r, "pitch");
  if (pitch <= 0.0) throw WireError("Request: pitch must be positive");
  const auto topology = static_cast<noc::Topology>(read_enum(
      r, static_cast<std::uint8_t>(noc::Topology::kTorus), "topology"));
  noc::TechnologyModel t;
  t.add_energy_per_bit_fj = read_finite(r, "tech");
  t.add_delay = Time::picoseconds(read_finite(r, "tech"));
  t.wire_energy_per_bit_mm_fj = read_finite(r, "tech");
  t.wire_delay_per_mm = Time::picoseconds(read_finite(r, "tech"));
  t.sram_cell_energy_per_bit_fj = read_finite(r, "tech");
  t.sram_cell_delay = Time::picoseconds(read_finite(r, "tech"));
  t.offchip_multiplier = read_finite(r, "tech");
  t.offchip_latency = Time::picoseconds(read_finite(r, "tech"));
  t.instruction_overhead_factor = read_finite(r, "tech");
  t.die = Area::mm2(read_finite(r, "tech"));
  fm::MachineConfig m{.geom = noc::GridGeometry(
                          static_cast<int>(cols), static_cast<int>(rows),
                          Length::millimetres(pitch), t, topology)};
  m.cycle = Time::picoseconds(read_finite(r, "cycle"));
  m.pe_capacity_values = r.i64();
  m.link_bits_per_cycle = read_finite(r, "link bits");
  m.local_access_pitch_fraction = read_finite(r, "pitch fraction");
  return m;
}

fm::FigureOfMerit read_fom(Reader& r) {
  return static_cast<fm::FigureOfMerit>(read_enum(
      r, static_cast<std::uint8_t>(fm::FigureOfMerit::kEnergyDelay),
      "figure of merit"));
}

void encode_verify(Writer& w, const fm::VerifyOptions& v) {
  w.b(v.check_storage);
  w.b(v.check_bandwidth);
}

fm::VerifyOptions decode_verify(Reader& r) {
  fm::VerifyOptions v;
  v.check_storage = r.b();
  v.check_bandwidth = r.b();
  return v;
}

// mix_search's fields, same order.
void encode_search_options(Writer& w, const fm::SearchOptions& s) {
  w.vec_i64(s.space.time_coeffs);
  w.vec_i64(s.space.space_coeffs);
  w.b(s.space.search_y);
  w.u8(static_cast<std::uint8_t>(s.fom));
  encode_verify(w, s.verify);
  w.u64(s.quick_sample);
  w.f64(s.makespan_slack);
  w.u64(s.top_k);
  w.b(s.keep_all_legal);
}

fm::SearchOptions decode_search_options(Reader& r) {
  fm::SearchOptions s;
  s.space.time_coeffs = r.vec_i64();
  s.space.space_coeffs = r.vec_i64();
  s.space.search_y = r.b();
  s.fom = read_fom(r);
  s.verify = decode_verify(r);
  s.quick_sample = r.u64();
  s.makespan_slack = read_finite(r, "makespan slack");
  s.top_k = r.u64();
  s.keep_all_legal = r.b();
  return s;
}

// mix_strategy's fields, same order.
void encode_strategy_options(Writer& w, const fm::StrategyOptions& s) {
  w.u8(static_cast<std::uint8_t>(s.fom));
  encode_verify(w, s.verify);
  w.u64(s.seed);
  w.i64(s.chains);
  w.i64(s.iters_per_epoch);
  w.i64(s.epochs);
  w.f64(s.t0_fraction);
  w.f64(s.cooling);
  w.i64(s.stall_epochs);
  w.i64(s.max_reheats);
  w.f64(s.makespan_slack);
  w.i64(s.beam_width);
  w.i64(s.beam_moves);
}

fm::StrategyOptions decode_strategy_options(Reader& r) {
  fm::StrategyOptions s;
  s.fom = read_fom(r);
  s.verify = decode_verify(r);
  s.seed = r.u64();
  s.chains = read_int(r, "chains");
  s.iters_per_epoch = read_int(r, "iters_per_epoch");
  s.epochs = read_int(r, "epochs");
  s.t0_fraction = read_finite(r, "t0_fraction");
  s.cooling = read_finite(r, "cooling");
  s.stall_epochs = read_int(r, "stall_epochs");
  s.max_reheats = read_int(r, "max_reheats");
  s.makespan_slack = read_finite(r, "makespan slack");
  s.beam_width = read_int(r, "beam_width");
  s.beam_moves = read_int(r, "beam_moves");
  return s;
}

// --- stochastic and pipeline replies ---------------------------------

void encode_domain(Writer& w, const fm::IndexDomain& d) {
  w.u8(static_cast<std::uint8_t>(d.rank()));
  for (int i = 0; i < d.rank(); ++i) w.i64(d.extent(i));
}

fm::IndexDomain decode_domain(Reader& r) {
  const int rank = r.u8();
  if (rank < 1 || rank > 3) throw WireError("IndexDomain: bad rank");
  std::int64_t e[3] = {1, 1, 1};
  for (int i = 0; i < rank; ++i) {
    e[i] = r.i64();
    if (e[i] < 1) throw WireError("IndexDomain: extent must be positive");
  }
  return rank == 1   ? fm::IndexDomain(e[0])
         : rank == 2 ? fm::IndexDomain(e[0], e[1])
                     : fm::IndexDomain(e[0], e[1], e[2]);
}

template <typename T>
void encode_ints(Writer& w, const std::vector<T>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const T x : v) w.i64(x);
}

template <typename T>
std::vector<T> decode_ints(Reader& r) {
  const std::vector<std::int64_t> wide = r.vec_i64();
  std::vector<T> v;
  v.reserve(wide.size());
  for (const std::int64_t x : wide) {
    if (x < std::numeric_limits<T>::min() ||
        x > std::numeric_limits<T>::max()) {
      throw WireError("TableMap: entry out of range");
    }
    v.push_back(static_cast<T>(x));
  }
  return v;
}

void encode_table(Writer& w, const fm::TableMap& t) {
  w.i64(t.target);
  encode_domain(w, t.domain);
  w.i64(t.cols);
  w.i64(t.rows);
  encode_ints(w, t.pe);
  encode_ints(w, t.cycle);
  encode_ints(w, t.input_home);
  w.u32(static_cast<std::uint32_t>(t.input_refs.size()));
  for (const fm::TableMap::InputRef& ref : t.input_refs) {
    w.i64(ref.tensor);
    w.i64(ref.point.i);
    w.i64(ref.point.j);
    w.i64(ref.point.k);
  }
}

fm::TableMap decode_table(Reader& r) {
  fm::TableMap t;
  t.target = static_cast<fm::TensorId>(r.i64());
  t.domain = decode_domain(r);
  t.cols = static_cast<int>(r.i64());
  t.rows = static_cast<int>(r.i64());
  t.pe = decode_ints<std::int32_t>(r);
  t.cycle = decode_ints<fm::Cycle>(r);
  t.input_home = decode_ints<std::int32_t>(r);
  const std::uint32_t refs = read_count(r, 32, "TableMap");
  t.input_refs.resize(refs);
  for (fm::TableMap::InputRef& ref : t.input_refs) {
    ref.tensor = static_cast<fm::TensorId>(r.i64());
    ref.point.i = r.i64();
    ref.point.j = r.i64();
    ref.point.k = r.i64();
  }
  return t;
}

void encode_strategy(Writer& w, const fm::StrategyResult& s) {
  w.b(s.found);
  encode_table(w, s.best);
  encode_cost(w, s.cost);
  w.f64(s.merit);
  w.u64(s.moves_tried);
  w.u64(s.moves_accepted);
  w.u64(s.moves_rejected_illegal);
  w.i64(s.epochs_run);
  w.i64(s.reheats);
  w.b(s.completed);
  w.i64(s.chains_used);
  w.u32(s.workers_used);
}

fm::StrategyResult decode_strategy(Reader& r) {
  fm::StrategyResult s;
  s.found = r.b();
  s.best = decode_table(r);
  s.cost = decode_cost(r);
  s.merit = r.f64();
  s.moves_tried = r.u64();
  s.moves_accepted = r.u64();
  s.moves_rejected_illegal = r.u64();
  s.epochs_run = static_cast<int>(r.i64());
  s.reheats = static_cast<int>(r.i64());
  s.completed = r.b();
  s.chains_used = static_cast<int>(r.i64());
  s.workers_used = r.u32();
  return s;
}

void encode_stage(Writer& w, const fm::StageResult& st) {
  w.str(st.name);
  w.b(st.found);
  encode_map(w, st.affine);
  encode_table(w, st.table);
  encode_cost(w, st.cost);
  w.f64(st.merit);
  encode_search(w, st.search);
  encode_strategy(w, st.strategy);
  w.u64(st.home_fingerprint);
  w.i64(st.start_cycle);
  w.i64(st.finish_cycle);
}

fm::StageResult decode_stage(Reader& r) {
  fm::StageResult st;
  st.name = r.str();
  st.found = r.b();
  st.affine = decode_map(r);
  st.table = decode_table(r);
  st.cost = decode_cost(r);
  st.merit = r.f64();
  st.search = decode_search(r, st.cost);
  st.strategy = decode_strategy(r);
  st.home_fingerprint = r.u64();
  st.start_cycle = r.i64();
  st.finish_cycle = r.i64();
  return st;
}

void encode_pipeline(Writer& w, const fm::PipelineResult& p) {
  w.b(p.found);
  w.b(p.completed);
  w.u32(static_cast<std::uint32_t>(p.stages.size()));
  for (const fm::StageResult& st : p.stages) encode_stage(w, st);
  encode_cost(w, p.total);
  w.f64(p.merit);
  w.u64(p.probe_searches);
}

fm::PipelineResult decode_pipeline(Reader& r) {
  fm::PipelineResult p;
  p.found = r.b();
  p.completed = r.b();
  // A stage is well over 256 bytes (map, cost, search, two tables).
  p.stages.resize(read_count(r, 256, "PipelineResult"));
  for (fm::StageResult& st : p.stages) st = decode_stage(r);
  p.total = decode_cost(r);
  p.merit = r.f64();
  p.probe_searches = r.u64();
  return p;
}

}  // namespace

// ---------------------------------------------------------------------
// Request: the fields make_cache_key reads, in its order, then QoS.
// ---------------------------------------------------------------------

void encode(Writer& w, const Request& req, const SpecCatalog& catalog) {
  // What the key cannot read cannot cross: refuse rather than drop.
  if (req.search.cancel || req.strategy_opts.cancel) {
    throw WireError("Request: a cancel hook cannot cross the wire");
  }
  if (req.search.scheduler != nullptr || req.strategy_opts.scheduler ||
      req.search.compiled != nullptr || req.strategy_opts.compiled ||
      req.search.resume_from != 0) {
    throw WireError(
        "Request: scheduler, pre-compiled tables and resume offsets are "
        "in-process state");
  }
  const bool pipeline = req.kind == RequestKind::kPipelineTune;
  if (pipeline ? req.pipeline == nullptr : req.spec == nullptr) {
    throw WireError("Request: no spec or pipeline to name");
  }
  // name_of throws for a spec or pipeline the catalog did not build —
  // which also covers pipelines with distributed external homes.
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.str(pipeline ? catalog.name_of(*req.pipeline)
                 : catalog.name_of(*req.spec));
  encode_machine(w, req.machine);
  w.u8(static_cast<std::uint8_t>(req.fom));
  if (!pipeline) {
    w.u32(static_cast<std::uint32_t>(req.inputs.size()));
    for (const InputPlacement& p : req.inputs) {
      w.u8(static_cast<std::uint8_t>(p.kind));
      w.i64(p.pe.x);
      w.i64(p.pe.y);
    }
  }
  switch (req.kind) {
    case RequestKind::kCostEval:
      encode_map(w, req.map);
      break;
    case RequestKind::kLegality:
      encode_map(w, req.map);
      encode_verify(w, req.verify);
      w.u64(req.verify.max_messages);
      break;
    case RequestKind::kTune:
    case RequestKind::kPipelineTune:
      if (pipeline) {
        w.b(req.pipeline_paired);
        w.u64(req.pipeline_pair_candidates);
      }
      w.u8(static_cast<std::uint8_t>(req.strategy));
      if (req.strategy == fm::StrategyKind::kExhaustive) {
        encode_search_options(w, req.search);
      } else {
        encode_strategy_options(w, req.strategy_opts);
      }
      break;
  }
  w.i64(req.deadline.count());
  w.u32(req.tune_workers);
}

Request decode_request(Reader& r, SpecCatalog& catalog) {
  Request req;
  req.kind = static_cast<RequestKind>(read_enum(
      r, static_cast<std::uint8_t>(RequestKind::kPipelineTune), "kind"));
  const bool pipeline = req.kind == RequestKind::kPipelineTune;
  const std::string name = r.str();
  req.machine = decode_machine(r);
  req.fom = read_fom(r);
  if (!pipeline) {
    req.inputs.resize(read_count(r, 17, "Request inputs"));
    for (InputPlacement& p : req.inputs) {
      p.kind = static_cast<InputPlacement::Kind>(read_enum(r, 1, "input"));
      p.pe.x = read_int(r, "input pe");
      p.pe.y = read_int(r, "input pe");
    }
  }
  switch (req.kind) {
    case RequestKind::kCostEval:
      req.map = decode_map(r);
      break;
    case RequestKind::kLegality:
      req.map = decode_map(r);
      req.verify = decode_verify(r);
      req.verify.max_messages = r.u64();
      break;
    case RequestKind::kTune:
    case RequestKind::kPipelineTune:
      if (pipeline) {
        req.pipeline_paired = r.b();
        req.pipeline_pair_candidates = r.u64();
      }
      req.strategy = static_cast<fm::StrategyKind>(read_enum(
          r, static_cast<std::uint8_t>(fm::StrategyKind::kBeam), "strategy"));
      if (req.strategy == fm::StrategyKind::kExhaustive) {
        req.search = decode_search_options(r);
      } else {
        req.strategy_opts = decode_strategy_options(r);
      }
      break;
  }
  req.deadline = std::chrono::nanoseconds(r.i64());
  req.tune_workers = r.u32();
  // Build last: a frame that fails to parse never reaches the catalog.
  if (pipeline) {
    req.pipeline = catalog.pipeline(name);
  } else {
    req.spec = catalog.spec(name);
  }
  return req;
}
// ---------------------------------------------------------------------
// Response.
// ---------------------------------------------------------------------

void encode(Writer& w, const Response& resp) {
  w.u8(static_cast<std::uint8_t>(resp.status));
  w.u8(static_cast<std::uint8_t>(resp.kind));
  w.b(resp.cache_hit);
  w.b(resp.deadline_cut);
  encode_cost(w, resp.cost);
  encode_legality(w, resp.legality);
  encode_search(w, resp.search);
  encode_strategy(w, resp.strategy);
  encode_pipeline(w, resp.pipeline);
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
  resp.strategy = decode_strategy(r);
  resp.pipeline = decode_pipeline(r);
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
  const std::uint32_t n = read_count(r, 8, "WireMetrics buckets");
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
// Identity.
// ---------------------------------------------------------------------

std::vector<std::uint8_t> semantic_bytes(const Response& resp) {
  Response canon = resp;
  canon.cache_hit = false;
  canon.latency = std::chrono::nanoseconds{0};
  canon.search.workers_used = 0;
  canon.strategy.workers_used = 0;
  for (fm::StageResult& st : canon.pipeline.stages) {
    st.search.workers_used = 0;
    st.strategy.workers_used = 0;
  }
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
