#pragma once
/// \file workspace.hpp
/// \brief Per-thread scratch arenas for the heuristic hot paths.
///
/// Every matcher in the library needs the same few working arrays each call
/// (degree counters, BFS queues, choice vectors, ...). Allocating them per
/// invocation is invisible on one large instance but dominates small-graph
/// jobs in the engine, where a worker thread executes thousands of
/// pipelines back to back. A Workspace is the fix: a bag of named, typed
/// buffers that grow monotonically and are reused across calls, so the
/// steady state of a warm worker performs no heap allocations at all.
///
/// Usage, inside an algorithm:
///
///   std::vector<vid_t>& state = ws.vec<vid_t>("ks.state", n);    // sized
///   std::vector<vid_t>& stack = ws.buf<vid_t>("ks.stack");       // cleared
///   ScalingResult& scaling = ws.obj<ScalingResult>("p.scaling"); // object
///
/// Rules:
///  * A Workspace is single-threaded. Use one per worker thread (the batch
///    runner does) or the per-thread default behind `for_this_thread()`.
///    Leased buffers may be *filled* by OpenMP parallel regions; only the
///    lease itself must happen on the owning thread.
///  * Tags are namespaced per call site ("hk.dist", "ks.pool", ...). A tag
///    is bound to the type of its first lease; re-leasing it with another
///    type throws std::logic_error. Two functions may share a tag only if
///    they never hold it at the same time (leases have no RAII scope — a
///    lease is valid until the same tag is leased again).
///  * Buffers never shrink; release() drops everything (e.g. between
///    differently-sized phases of a long-lived server, or in tests).
///
/// Classic and `_ws` twins: most kernels come in two forms. The `_ws` form
/// (`karp_sipser_ws(g, seed, stats, ws, out)`) is the implementation and
/// the serving path: scratch from a caller's Workspace, result into a
/// caller's object. The classic form (`karp_sipser(g, seed)`) is a
/// by-value convenience that forwards to the `_ws` form over
/// `for_this_thread()`; it exists for tests, benches and examples, which
/// call it at hundreds of sites, and carries no logic of its own.

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bmh {

class Workspace {
public:
  Workspace() = default;
  Workspace(Workspace&&) noexcept = default;
  Workspace& operator=(Workspace&&) noexcept = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Leases the vector bound to `tag`, resized to `n` elements. Contents
  /// are unspecified (stale values from the previous lease, value-init in
  /// the grown tail); callers that read before writing must use the fill
  /// overload. Capacity grows monotonically and is reused across calls.
  template <typename T>
  std::vector<T>& vec(std::string_view tag, std::size_t n) {
    std::vector<T>& data = slot<T>(tag);
    if (data.capacity() < n) {
      // Contents are unspecified anyway: drop them so growth is a plain
      // allocation instead of an allocate-and-copy.
      data.clear();
      data.reserve(n);
    }
    data.resize(n);
    return data;
  }

  /// Leases the vector bound to `tag` with every element set to `fill`.
  template <typename T>
  std::vector<T>& vec(std::string_view tag, std::size_t n, const T& fill) {
    std::vector<T>& data = slot<T>(tag);
    data.assign(n, fill);
    return data;
  }

  /// Leases the vector bound to `tag`, cleared but with capacity kept —
  /// the shape for stacks and queues built up by push_back.
  template <typename T>
  std::vector<T>& buf(std::string_view tag) {
    std::vector<T>& data = slot<T>(tag);
    data.clear();
    return data;
  }

  /// Leases a default-constructed object of type T bound to `tag`. The
  /// object persists across calls, so reusable aggregates (a ScalingResult,
  /// a Matching) keep the capacity of their internal vectors.
  template <typename T>
  T& obj(std::string_view tag) {
    if (SlotBase* found = find(tag)) {
      if (found->type != type_key<ObjSlot<T>>())
        throw_type_mismatch(tag);
      return static_cast<ObjSlot<T>*>(found)->data;
    }
    auto created = std::make_unique<ObjSlot<T>>();
    created->tag.assign(tag);
    created->type = type_key<ObjSlot<T>>();
    auto* raw = created.get();
    slots_.push_back(std::move(created));
    return raw->data;
  }

  /// Number of distinct tags leased so far.
  [[nodiscard]] std::size_t lease_count() const noexcept { return slots_.size(); }

  /// Bytes currently reserved by vector leases (object leases count their
  /// shallow size only). Monotone between release() calls.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const auto& s : slots_) total += s->bytes();
    return total;
  }

  /// Drops every lease and frees the backing memory.
  void release() noexcept { slots_.clear(); }

  /// The calling thread's default workspace; what the classic (non-`_ws`)
  /// entry points use. Lives until thread exit.
  [[nodiscard]] static Workspace& for_this_thread();

private:
  struct SlotBase {
    std::string tag;
    const void* type = nullptr;
    virtual ~SlotBase() = default;
    [[nodiscard]] virtual std::size_t bytes() const noexcept = 0;
  };

  template <typename T>
  struct VecSlot final : SlotBase {
    std::vector<T> data;
    [[nodiscard]] std::size_t bytes() const noexcept override {
      return data.capacity() * sizeof(T);
    }
  };

  template <typename T>
  struct ObjSlot final : SlotBase {
    T data{};
    [[nodiscard]] std::size_t bytes() const noexcept override { return sizeof(T); }
  };

  /// One address per slot instantiation: a cheap RTTI-free type key.
  template <typename Slot>
  [[nodiscard]] static const void* type_key() noexcept {
    static constexpr char key = 0;
    return &key;
  }

  [[nodiscard]] SlotBase* find(std::string_view tag) noexcept {
    for (const auto& s : slots_)
      if (s->tag == tag) return s.get();
    return nullptr;
  }

  template <typename T>
  [[nodiscard]] std::vector<T>& slot(std::string_view tag) {
    if (SlotBase* found = find(tag)) {
      if (found->type != type_key<VecSlot<T>>())
        throw_type_mismatch(tag);
      return static_cast<VecSlot<T>*>(found)->data;
    }
    auto created = std::make_unique<VecSlot<T>>();
    created->tag.assign(tag);
    created->type = type_key<VecSlot<T>>();
    auto* raw = created.get();
    slots_.push_back(std::move(created));
    return raw->data;
  }

  [[noreturn]] static void throw_type_mismatch(std::string_view tag);

  std::vector<std::unique_ptr<SlotBase>> slots_;
};

} // namespace bmh
