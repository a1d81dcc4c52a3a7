#include "interp/heap.h"

#include <bit>
#include <mutex>

#include "interp/environment.h"
#include "interp/object.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace jsceres::interp {

namespace {

/// Chunks given back by finished sessions, for the next ones.
struct ChunkCache {
  std::mutex mutex;
  void* chunks[Heap::kCachedChunks] = {};
  std::size_t count = 0;
};

ChunkCache& chunk_cache() {
  static ChunkCache* cache = new ChunkCache();  // never freed, like the realm
  return *cache;
}

/// A cached chunk is poisoned, so AddressSanitizer reports a use of an
/// object after its session even when a later session took the chunk.
void set_poisoned(void* chunk, bool poisoned) {
#if defined(__SANITIZE_ADDRESS__)
  if (poisoned) {
    ASAN_POISON_MEMORY_REGION(chunk, Heap::kChunkBytes);
  } else {
    ASAN_UNPOISON_MEMORY_REGION(chunk, Heap::kChunkBytes);
  }
#else
  (void)chunk;
  (void)poisoned;
#endif
}

constexpr std::size_t kChunkHeader = 16;  // the link, padded to alignment

}  // namespace

template <typename T>
void Heap::destroy_list(T* head) {
  while (head != nullptr) {
    T* next = head->heap_next_;
    head->~T();
    head = next;
  }
}

Heap::~Heap() {
  destroy_list(objects_);
  destroy_list(environments_);
  destroy_list(functions_);
  ChunkCache& cache = chunk_cache();
  const std::lock_guard lock(cache.mutex);
  while (chunks_ != nullptr) {
    void* chunk = chunks_;
    chunks_ = *static_cast<void**>(chunk);
    if (cache.count < kCachedChunks) {
      set_poisoned(chunk, true);
      cache.chunks[cache.count++] = chunk;
    } else {
      ::operator delete(chunk);
    }
  }
}

void Heap::next_chunk() {
  void* chunk = nullptr;
  {
    ChunkCache& cache = chunk_cache();
    const std::lock_guard lock(cache.mutex);
    if (cache.count > 0) chunk = cache.chunks[--cache.count];
  }
  if (chunk != nullptr) {
    set_poisoned(chunk, false);
  } else {
    chunk = ::operator new(kChunkBytes);
  }
  *static_cast<void**>(chunk) = chunks_;
  chunks_ = chunk;
  cursor_ = static_cast<char*>(chunk) + kChunkHeader;
  limit_ = static_cast<char*>(chunk) + kChunkBytes;
}

Value* Heap::allocate_values(std::uint32_t capacity) {
  if (capacity > kMaxPooledSlots) {
    return static_cast<Value*>(::operator new(std::size_t(capacity) * sizeof(Value)));
  }
  if (std::has_single_bit(capacity)) {
    FreeArray*& head = free_arrays_[std::countr_zero(capacity)];
    if (head != nullptr) {
      FreeArray* array = head;
      head = array->next;
      return reinterpret_cast<Value*>(array);
    }
  }
  return static_cast<Value*>(allocate(std::size_t(capacity) * sizeof(Value)));
}

void Heap::free_values(Value* values, std::uint32_t capacity) {
  if (capacity == 0) return;
  if (capacity > kMaxPooledSlots) {
    ::operator delete(values);
    return;
  }
  // An exact-size array (a realm copy's) serves the largest class it holds.
  FreeArray*& head = free_arrays_[std::bit_width(capacity) - 1];
  head = new (values) FreeArray{head};
}

}  // namespace jsceres::interp
