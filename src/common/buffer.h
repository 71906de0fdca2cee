#ifndef NBRAFT_COMMON_BUFFER_H_
#define NBRAFT_COMMON_BUFFER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace nbraft {

/// Immutable ref-counted byte buffer. Copying a Buffer bumps a refcount;
/// the bytes themselves are shared and never mutated after construction.
///
/// This is what lets one 4 KB (or 128 KB) log-entry payload flow through
/// the client request, the leader's log, every per-peer AppendEntries RPC,
/// batches, retries and the state machine without a single memcpy: each
/// hop holds a reference to the same allocation. Construct from a
/// std::string (moved in) or string literal. An empty Buffer owns no
/// allocation at all.
///
/// A Buffer's logical contents are its stored bytes followed by zeros up
/// to size(): Buffer(bytes, size) models a record padded to `size` without
/// allocating or filling the padding. size() and empty() are logical, and
/// so are str() and ==. view() and data() expose only the stored bytes
/// (view().size() <= size()); a reader that needs every logical byte calls
/// str() or treats [view().size(), size()) as zeros.
class Buffer {
 public:
  Buffer() = default;

  Buffer(std::string bytes)  // NOLINT: implicit, replaces std::string fields.
      : Buffer(std::move(bytes), 0) {}

  /// `bytes` followed by a zero tail up to max(bytes.size(), size).
  Buffer(std::string bytes, size_t size) {
    if (size < bytes.size()) size = bytes.size();
    if (size > 0) {
      rep_ = std::make_shared<const Rep>(Rep{std::move(bytes), size});
    }
  }

  Buffer(std::string_view bytes)  // NOLINT: implicit.
      : Buffer(std::string(bytes)) {}

  Buffer(const char* bytes)  // NOLINT: implicit, for literals.
      : Buffer(std::string(bytes)) {}

  /// Logical size: stored bytes plus the zero tail.
  size_t size() const { return rep_ ? rep_->size : 0; }
  bool empty() const { return size() == 0; }

  /// The stored bytes only (no zero tail).
  const char* data() const { return rep_ ? rep_->bytes.data() : ""; }
  std::string_view view() const {
    return rep_ ? std::string_view(rep_->bytes) : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT: implicit.

  /// Materializes an owned copy of the logical bytes, zero tail included
  /// (cold paths: snapshot assembly, config recovery, tests).
  std::string str() const {
    std::string out(view());
    out.resize(size(), '\0');
    return out;
  }

  /// Drops this reference. The bytes are freed when the last holder does.
  void clear() { rep_.reset(); }

  /// True when this is the only reference (diagnostics).
  bool unique() const { return rep_ == nullptr || rep_.use_count() == 1; }

  // Strings and literals compare through the implicit Buffer conversion;
  // heterogeneous overloads would be ambiguous with it. Equality is
  // logical: a zero tail equals stored zeros.
  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.rep_ == b.rep_) return true;
    if (a.size() != b.size()) return false;
    std::string_view shorter = a.view();
    std::string_view longer = b.view();
    if (shorter.size() > longer.size()) std::swap(shorter, longer);
    return longer.substr(0, shorter.size()) == shorter &&
           longer.find_first_not_of('\0', shorter.size()) ==
               std::string_view::npos;
  }
  friend bool operator!=(const Buffer& a, const Buffer& b) {
    return !(a == b);
  }

 private:
  struct Rep {
    std::string bytes;
    size_t size;  ///< Logical size, >= bytes.size().
  };

  std::shared_ptr<const Rep> rep_;
};

}  // namespace nbraft

#endif  // NBRAFT_COMMON_BUFFER_H_
