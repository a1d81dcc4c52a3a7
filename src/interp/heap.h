#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace jsceres::interp {

class Environment;
class JSObject;
class Value;
struct FunctionData;

/// One session's heap: the objects, slot arrays, function payloads and
/// environments an Interpreter makes, all freed in one step with it. There
/// is no collector and no reference count, so a cycle among objects goes
/// with its heap like anything else (mujs allocates through its state the
/// same way, with js_malloc(js_State*, ...)).
///
/// Records are bump-allocated from kChunkBytes chunks and threaded on one
/// intrusive list per type, which teardown walks to run their destructors.
/// Slot arrays have power-of-two capacities; one an object outgrows waits
/// on a free list for the next object that grows, and arrays above
/// kMaxPooledSlots are ordinary heap blocks. Teardown hands the chunks to a
/// process-wide cache of at most kCachedChunks, which the next sessions
/// take first. Not thread-safe: a session runs on one thread at a time.
class Heap {
 public:
  static constexpr std::size_t kChunkBytes = std::size_t(32) << 10;
  static constexpr std::size_t kCachedChunks = 32;
  static constexpr std::uint32_t kMaxPooledSlots = 256;

  Heap() = default;
  ~Heap();
  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  /// A T (JSObject, Environment or FunctionData) that lives as long as the
  /// heap.
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    T* cell = new (allocate(sizeof(T))) T(std::forward<Args>(args)...);
    cell->heap_next_ = list<T>();
    list<T>() = cell;
    return cell;
  }

  /// Uninitialized storage for `capacity` Values, and its return once the
  /// Values are destroyed.
  Value* allocate_values(std::uint32_t capacity);
  void free_values(Value* values, std::uint32_t capacity);

 private:
  void* allocate(std::size_t bytes) {
    bytes = (bytes + 15) & ~std::size_t(15);
    if (std::size_t(limit_ - cursor_) < bytes) next_chunk();
    void* out = cursor_;
    cursor_ += bytes;
    return out;
  }
  void next_chunk();

  template <typename T>
  T*& list();
  template <typename T>
  static void destroy_list(T* head);

  struct FreeArray {
    FreeArray* next;
  };
  static constexpr int kSizeClasses = 9;  // capacities 1, 2, 4, ..., 256
  static_assert(kMaxPooledSlots == 1u << (kSizeClasses - 1));

  char* cursor_ = nullptr;
  char* limit_ = nullptr;
  void* chunks_ = nullptr;  // each chunk's first word links the previous one
  JSObject* objects_ = nullptr;
  Environment* environments_ = nullptr;
  FunctionData* functions_ = nullptr;
  FreeArray* free_arrays_[kSizeClasses] = {};
};

template <>
inline JSObject*& Heap::list<JSObject>() {
  return objects_;
}
template <>
inline Environment*& Heap::list<Environment>() {
  return environments_;
}
template <>
inline FunctionData*& Heap::list<FunctionData>() {
  return functions_;
}

}  // namespace jsceres::interp
