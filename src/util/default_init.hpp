#pragma once
/// \file default_init.hpp
/// \brief A vector whose resize leaves new elements default-initialized.
///
/// `std::vector<T>::resize` zero-fills trivial elements, one serial pass over
/// memory the caller is about to overwrite. For the graph builder's
/// multi-megabyte buffers that pass, and the page faults it takes on fresh
/// memory, cost as much as the parallel loop that fills them; with this
/// allocator the filling loop touches each page first, on every thread.

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace bmh {

/// std::allocator whose value-initializing construct() default-initializes
/// instead: new trivial elements are left indeterminate.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <class U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A std::vector whose resize() does not zero the elements it adds; every
/// element must be written before it is read.
template <class T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

} // namespace bmh
