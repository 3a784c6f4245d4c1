#include "serve/catalog.hpp"

#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/pipelines.hpp"
#include "algos/specs.hpp"
#include "support/error.hpp"

namespace harmony::serve {
namespace {

/// A name split into its family and its dimension list ("a,b,c" or
/// "AxB").  Throws on anything that is not a plain decimal integer —
/// names come off the wire, so parsing is as strict as the frame
/// decoder.
struct ParsedName {
  std::string family;
  std::vector<std::int64_t> dims;
};

ParsedName parse(const std::string& name) {
  const std::size_t colon = name.find(':');
  if (colon == std::string::npos || colon + 1 >= name.size()) {
    throw WireError("SpecCatalog: malformed name '" + name + "'");
  }
  ParsedName out{name.substr(0, colon), {}};
  const std::string rest = name.substr(colon + 1);
  const char sep = out.family == "editdist" ? 'x' : ',';
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = rest.find(sep, pos);
    const std::string tok = rest.substr(
        pos, next == std::string::npos ? std::string::npos : next - pos);
    std::int64_t v = 0;
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
    // Digits only (no sign), and no overflow.
    if (tok.empty() || tok.front() == '-' || ec != std::errc{} ||
        ptr != end) {
      throw WireError("SpecCatalog: bad dimension '" + tok + "' in '" +
                      name + "'");
    }
    out.dims.push_back(v);
    if (next == std::string::npos) return out;
    pos = next + 1;
  }
}

/// Requires `arity` dimensions, every extent >= 1, and their product
/// within kMaxNamePoints; `extents` lists which dims are extents
/// (indices into dims, repeated where a dim counts more than once).
void check_shape(const std::string& name, const ParsedName& p,
                 std::size_t arity, std::initializer_list<std::size_t> extents,
                 const char* grammar) {
  if (p.dims.size() != arity) {
    throw WireError("SpecCatalog: " + p.family + " wants " + grammar +
                    ": '" + name + "'");
  }
  std::int64_t points = 1;
  for (const std::size_t d : extents) {
    const std::int64_t e = p.dims[d];
    if (e < 1) {
      throw WireError("SpecCatalog: zero extent in '" + name + "'");
    }
    if (e > kMaxNamePoints / points) {
      throw WireError("SpecCatalog: '" + name + "' asks for more than " +
                      std::to_string(kMaxNamePoints) + " points");
    }
    points *= e;
  }
}

std::shared_ptr<const fm::FunctionSpec> build_spec(const std::string& name) {
  const ParsedName p = parse(name);
  const auto& d = p.dims;
  if (p.family == "editdist") {
    check_shape(name, p, 2, {0, 1}, "NxM");
    return std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(d[0], d[1], algos::SwScores{}));
  }
  if (p.family == "stencil") {
    check_shape(name, p, 2, {0, 1}, "N,STEPS");
    return std::make_shared<const fm::FunctionSpec>(
        algos::stencil1d_spec(d[0], d[1]));
  }
  if (p.family == "conv") {
    check_shape(name, p, 2, {0, 1}, "N,K");
    return std::make_shared<const fm::FunctionSpec>(
        algos::conv1d_spec(d[0], d[1]));
  }
  if (p.family == "matmul") {
    check_shape(name, p, 1, {0, 0, 0}, "N");
    return std::make_shared<const fm::FunctionSpec>(algos::matmul_spec(d[0]));
  }
  if (p.family == "irregular") {
    // FANIN is bounded by the budget, so the int cast cannot wrap.
    check_shape(name, p, 3, {0, 1}, "N,FANIN,SEED");
    return std::make_shared<const fm::FunctionSpec>(algos::irregular_dag_spec(
        d[0], static_cast<int>(d[1]), static_cast<std::uint64_t>(d[2])));
  }
  throw WireError("SpecCatalog: unknown spec family '" + p.family + "'");
}

std::shared_ptr<const fm::Pipeline> build_pipeline(const std::string& name) {
  const ParsedName p = parse(name);
  const auto& d = p.dims;
  if (p.family == "fft") {
    check_shape(name, p, 1, {0}, "N");
    return std::make_shared<const fm::Pipeline>(
        algos::fft_shuffle_fft_pipeline(d[0]));
  }
  if (p.family == "scanchain") {
    check_shape(name, p, 1, {0}, "N");
    return std::make_shared<const fm::Pipeline>(
        algos::scan_filter_scan_pipeline(d[0]));
  }
  if (p.family == "diamond") {
    check_shape(name, p, 1, {0}, "N");
    return std::make_shared<const fm::Pipeline>(algos::diamond_pipeline(d[0]));
  }
  if (p.family == "irregular") {
    check_shape(name, p, 3, {0, 1}, "N,FANIN,SEED");
    return std::make_shared<const fm::Pipeline>(
        algos::irregular_chain_pipeline(d[0], static_cast<int>(d[1]),
                                        static_cast<std::uint64_t>(d[2])));
  }
  throw WireError("SpecCatalog: unknown pipeline family '" + p.family + "'");
}

}  // namespace

template <typename T>
std::shared_ptr<const T> SpecCatalog::memoize(
    ByName<T>& built, const std::string& name,
    std::shared_ptr<const T> (*build)(const std::string&)) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = built.find(name); it != built.end()) return it->second;
  }
  // Build outside the lock (irregular DAGs can be sizable).  A builder's
  // own shape check (fft wants a power of two) is a bad name too.
  std::shared_ptr<const T> object;
  try {
    object = build(name);
  } catch (const InvalidArgument& e) {
    throw WireError("SpecCatalog: '" + name + "': " + e.what());
  }
  // On a race the first insert wins; both builds are identical by
  // determinism, and only the kept one is ever named.
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = built.emplace(name, std::move(object));
  if (inserted) names_.emplace(it->second.get(), name);
  return it->second;
}

std::shared_ptr<const fm::FunctionSpec> SpecCatalog::spec(
    const std::string& name) {
  return memoize(specs_, name, &build_spec);
}

std::shared_ptr<const fm::Pipeline> SpecCatalog::pipeline(
    const std::string& name) {
  return memoize(pipelines_, name, &build_pipeline);
}

std::string SpecCatalog::lookup(const void* object, const char* what) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = names_.find(object);
  if (it == names_.end()) {
    throw WireError(std::string("SpecCatalog: ") + what +
                    " was not built by this catalog");
  }
  return it->second;
}

std::string SpecCatalog::name_of(const fm::FunctionSpec& spec) const {
  return lookup(&spec, "spec");
}

std::string SpecCatalog::name_of(const fm::Pipeline& pipe) const {
  return lookup(&pipe, "pipeline");
}

}  // namespace harmony::serve
