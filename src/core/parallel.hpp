#pragma once
// Deterministic intra-computation parallelism for the CDS pipeline.
//
// Every per-node decision of the synchronous pipeline — the marking process
// and the simultaneous Rule 1 / Rule 2 / Rule k passes — is a pure function
// of frozen inputs (the graph, the keys, and the previous stage's mark set).
// The node range can therefore be sharded across workers with no
// synchronization beyond the fork/join, and the result is bit-identical to
// the serial pass regardless of worker count or scheduling order, provided
// shards never write the same memory. The marking pass, the rule passes and
// the localized engines' region passes guarantee that by aligning shard
// boundaries to 64-bit bitset words: a shard [begin, end) only touches
// output words [begin/64, end/64).
//
// The core layer only sees this minimal `Executor` interface; the concrete
// multi-threaded implementation is sim/ThreadPool (which derives from it),
// so core keeps zero threading dependencies. A null Executor* is the serial
// path (run_sharded below).

#include <cstddef>
#include <type_traits>

#include "core/bitset.hpp"

namespace pacds {

/// Non-owning reference to a callable `void(begin, end, lane)` — like
/// std::function but guaranteed allocation-free (hot paths run one of these
/// per pipeline stage per interval). The referenced callable must outlive
/// the call it is passed to, which fork/join usage guarantees.
class ChunkFnRef {
 public:
  /// Constrained away from ChunkFnRef itself: for a non-const lvalue the
  /// unconstrained template would beat the copy constructor and capture the
  /// (possibly temporary) wrapper instead of the underlying callable.
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cv_t<F>, ChunkFnRef>>>
  ChunkFnRef(F& fn)  // NOLINT(google-explicit-constructor): by-design
      : ctx_(&fn), call_([](void* ctx, std::size_t begin, std::size_t end,
                            std::size_t lane) {
          (*static_cast<F*>(ctx))(begin, end, lane);
        }) {}

  void operator()(std::size_t begin, std::size_t end, std::size_t lane) const {
    call_(ctx_, begin, end, lane);
  }

 private:
  void* ctx_;
  void (*call_)(void*, std::size_t, std::size_t, std::size_t);
};

/// Fork/join execution of an index range in aligned chunks.
///
/// Implementations partition [0, count) into chunks whose boundaries are
/// multiples of `align` (except the final end, which is `count`), invoke
/// `body(begin, end, lane)` once per chunk, and return only after every
/// chunk has run. The `lane` argument selects a scratch slot: it is always
/// `< max_lanes()`, and two chunks running concurrently never share a lane,
/// so callers may index per-lane scratch buffers without locks. Chunk order
/// and lane assignment are unspecified — bodies must only write state owned
/// by their index range (or their lane's scratch).
class Executor {
 public:
  virtual ~Executor() = default;

  /// Upper bound (exclusive) on the `lane` values handed to chunk bodies.
  [[nodiscard]] virtual std::size_t max_lanes() const = 0;

  /// Runs `body` over [0, count) as described above. `align` must be >= 1.
  virtual void run_chunks(std::size_t count, std::size_t align,
                          ChunkFnRef body) = 0;
};

/// Runs `body` on `exec`, or inline when `exec` is null: one chunk, lane 0,
/// on the calling thread — the plain serial pass. The shared entry-point
/// idiom of every *_into kernel.
inline void run_sharded(Executor* exec, std::size_t count, std::size_t align,
                        ChunkFnRef body) {
  if (exec != nullptr) {
    exec->run_chunks(count, align, body);
  } else if (count > 0) {
    body(0, count, 0);
  }
}

/// Calls `decide(i, lane)` for every set bit i of `nodes`, in word-aligned
/// shards on `exec` (inline, lane 0, when null). A decision may write bit i
/// of any bitset as wide as `nodes` — a shard's writes stay inside its own
/// 64-bit words — and must read only state no decision of this call
/// writes. The one loop behind every sharded stage: the simultaneous rule
/// passes over the marked set and the localized engines' region passes.
template <typename Decide>
void for_each_set_sharded(Executor* exec, const DynBitset& nodes,
                          const Decide& decide) {
  auto body = [&](std::size_t begin, std::size_t end, std::size_t lane) {
    nodes.for_each_set_in_range(begin, end,
                                [&](std::size_t i) { decide(i, lane); });
  };
  run_sharded(exec, nodes.size(), DynBitset::kWordBits, body);
}

}  // namespace pacds
