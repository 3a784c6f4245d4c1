// Named specs and pipelines for the wire tier (DESIGN.md §17).
//
// A FunctionSpec cannot cross a process boundary — its dependence
// relation is a black-box std::function — and neither can an
// fm::Pipeline of them, so a request on the wire names its spec or
// pipeline in the grammar harmony-lint already speaks, and each end
// rebuilds it locally.  Specs (--spec):
//
//   editdist:NxM          Smith-Waterman H over N x M (default scores)
//   stencil:N,STEPS       1-D Jacobi heat stencil
//   conv:N,K              1-D convolution partial-sum recurrence
//   matmul:N              N x N x N matrix multiply
//   irregular:N,FANIN,SEED  hash-derived irregular DAG
//
// Pipelines (--pipeline; algos/pipelines.hpp):
//
//   fft:N                 butterfly -> bit-reverse shuffle -> butterfly
//   scanchain:N           scan -> filter -> scan
//   diamond:N             scan -> {filter, shuffle} -> combine
//   irregular:N,FANIN,SEED  two-stage irregular DAG chain
//
// SpecCatalog is the one module that knows names, in both directions:
// spec()/pipeline() build by name, and name_of() gives back the name of
// anything this catalog built — which is how encode(Writer&, const
// Request&, const SpecCatalog&) writes a request.  No name field rides
// on Request or FunctionSpec.  The builders are deterministic, so a
// router's build and a shard's build fingerprint identically and
// make_cache_key() agrees across the wire (tests/serve_wire_test.cpp).
//
// Names come off the wire, so the grammar is strict: every dimension is
// a plain decimal integer, every extent is at least 1, and the extents
// a name asks for multiply to at most kMaxNamePoints (for matmul N
// counts three times, for irregular the FANIN counts as an extent).
// Anything else — an unknown family, a malformed or zero dimension, a
// name over the budget, a shape the builder refuses — throws WireError.
//
// Memoized by name: a shard answering 10k requests for "editdist:24x24"
// builds the spec once, and every build stays alive as long as the
// catalog does (which keeps name_of()'s answers valid).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fm/pipeline.hpp"
#include "fm/spec.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

/// The computed-point budget one name may ask for (2^20): far above the
/// largest name in use (editdist:64x64), far below where a domain size
/// or a grid table could overflow.
inline constexpr std::int64_t kMaxNamePoints = std::int64_t{1} << 20;

class SpecCatalog {
 public:
  /// The spec named by `name`; builds and memoizes on first use.
  [[nodiscard]] std::shared_ptr<const fm::FunctionSpec> spec(
      const std::string& name);

  /// The canned pipeline named by `name`; builds and memoizes on first
  /// use.
  [[nodiscard]] std::shared_ptr<const fm::Pipeline> pipeline(
      const std::string& name);

  /// The name this catalog built `spec` / `pipe` from.  Throws
  /// WireError for an object this catalog did not build.
  [[nodiscard]] std::string name_of(const fm::FunctionSpec& spec) const;
  [[nodiscard]] std::string name_of(const fm::Pipeline& pipe) const;

 private:
  template <typename T>
  using ByName = std::unordered_map<std::string, std::shared_ptr<const T>>;

  template <typename T>
  std::shared_ptr<const T> memoize(ByName<T>& built, const std::string& name,
                                   std::shared_ptr<const T> (*build)(
                                       const std::string&));
  [[nodiscard]] std::string lookup(const void* object,
                                   const char* what) const;

  mutable std::mutex mu_;
  ByName<fm::FunctionSpec> specs_;
  ByName<fm::Pipeline> pipelines_;
  /// Reverse index: every object above -> the name it was built from.
  std::unordered_map<const void*, std::string> names_;
};

}  // namespace harmony::serve
