#pragma once
// A vector with inline capacity for trivially copyable elements: the first
// N elements live inside the object, and only a longer list spills to the
// heap. `Operation` stores its qubits, clbits and params in these, so an op
// of any gate kind is built, copied and moved without an allocation; only
// wide barriers spill.
//
// The interface is the part of std::vector the IR uses. There is no
// conversion back to std::vector: code that reads operands takes a
// std::span<const T>, which both containers convert to for free.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace qtc {

template <class T, std::uint32_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec: inline capacity must be positive");
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "SmallVec: elements are copied as bytes");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using pointer = T*;
  using const_pointer = const T*;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept = default;
  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }
  SmallVec(const std::vector<T>& v) { assign(v.begin(), v.end()); }

  /// A source that fits inline is copied as one fixed-size block, whether
  /// it is inline itself or a heap list that shrank.
  SmallVec(const SmallVec& o) : size_(o.size_) {
    if (o.size_ <= N) {
      std::memcpy(s_.inl, o.data(), sizeof(s_.inl));
    } else {
      s_.heap = allocate(o.size_);
      cap_ = o.size_;
      std::memcpy(s_.heap, o.s_.heap, o.size_ * sizeof(T));
    }
  }

  /// Moving takes the bytes of the storage union as they are (the inline
  /// elements or the heap pointer) and leaves the source empty and inline.
  SmallVec(SmallVec&& o) noexcept : s_(o.s_), size_(o.size_), cap_(o.cap_) {
    o.size_ = 0;
    o.cap_ = N;
  }

  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) {
      if (o.size_ > cap_) reallocate(o.size_, 0);
      copy_elements(o.data(), o.size_, data());
      size_ = o.size_;
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      s_ = o.s_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.size_ = 0;
      o.cap_ = N;
    }
    return *this;
  }

  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~SmallVec() { release(); }

  // --- capacity -------------------------------------------------------------
  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  size_type capacity() const noexcept { return cap_; }
  /// True while the elements live inside the object (no heap block).
  bool is_inline() const noexcept { return cap_ == N; }
  static constexpr size_type max_size() noexcept { return kMaxSize; }

  void reserve(size_type n) {
    if (n > cap_) reallocate(checked(n), size_);
  }

  // --- element access -------------------------------------------------------
  T* data() noexcept { return is_inline() ? s_.inl : s_.heap; }
  const T* data() const noexcept { return is_inline() ? s_.inl : s_.heap; }
  T& operator[](size_type i) noexcept { return data()[i]; }
  const T& operator[](size_type i) const noexcept { return data()[i]; }
  T& at(size_type i) {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }
  const T& at(size_type i) const {
    if (i >= size_) throw std::out_of_range("SmallVec::at");
    return data()[i];
  }
  T& front() noexcept { return data()[0]; }
  const T& front() const noexcept { return data()[0]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }

  // --- modifiers ------------------------------------------------------------
  void push_back(const T& value) {
    if (size_ == cap_) {
      const T copy = value;  // `value` may live in the block being replaced
      reallocate(grown(size_ + 1), size_);
      data()[size_++] = copy;
      return;
    }
    data()[size_++] = value;
  }
  void clear() noexcept { size_ = 0; }

  void resize(size_type n) { resize(n, T()); }
  void resize(size_type n, const T& value) {
    if (n > cap_) {
      const T copy = value;
      reallocate(grown(checked(n)), size_);
      std::fill(data() + size_, data() + n, copy);
    } else if (n > size_) {
      std::fill(data() + size_, data() + n, value);
    }
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(size_type n, const T& value) {
    const T copy = value;
    if (n > cap_) reallocate(checked(n), 0);
    std::fill(data(), data() + n, copy);
    size_ = static_cast<std::uint32_t>(n);
  }
  template <std::forward_iterator It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n > cap_) reallocate(checked(n), 0);
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }

  // --- comparison -----------------------------------------------------------
  /// Element-wise ==, as std::vector compares (so 0.0 == -0.0 and a NaN
  /// param never equals itself).
  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const SmallVec& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Lexicographic, as std::vector orders (a map key of operands).
  friend bool operator<(const SmallVec& a, const SmallVec& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  static constexpr size_type kMaxSize = 0x7fffffff;

  static size_type checked(size_type n) {
    if (n > kMaxSize) throw std::length_error("SmallVec: too many elements");
    return n;
  }
  size_type grown(size_type min_cap) const {
    return std::max(checked(min_cap),
                    std::min<size_type>(2 * size_type{cap_}, kMaxSize));
  }
  static T* allocate(size_type n) {
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  static void copy_elements(const T* from, size_type n, T* to) noexcept {
    if (n != 0) std::memcpy(to, from, n * sizeof(T));
  }
  void release() noexcept {
    if (!is_inline()) ::operator delete(s_.heap);
  }
  /// Move to a heap block of capacity `new_cap` (> N), keeping the first
  /// `keep` elements.
  void reallocate(size_type new_cap, size_type keep) {
    T* block = allocate(new_cap);
    copy_elements(data(), keep, block);
    release();
    s_.heap = block;
    cap_ = static_cast<std::uint32_t>(new_cap);
  }

  union Storage {
    T inl[N]{};
    T* heap;
  };
  Storage s_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;  // == N exactly while inline
};

}  // namespace qtc
