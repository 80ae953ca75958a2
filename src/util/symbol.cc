#include "util/symbol.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <unordered_map>

#include "util/check.h"

namespace rv::util {
namespace {

// Append-only pool: fixed-size chunk table so a pooled string's address
// never changes after construction (index_ keys view into chunk storage,
// and str() returns references that must stay valid forever).
class SymbolPool {
 public:
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kMaxChunks = 1 << 12;  // 2^20 symbols cap

  static SymbolPool& instance() {
    static SymbolPool* pool = new SymbolPool();  // never destroyed
    return *pool;
  }

  std::uint32_t intern(std::string_view s) {
    {
      std::shared_lock lock(mu_);
      const auto it = index_.find(s);
      if (it != index_.end()) return it->second;
    }
    std::unique_lock lock(mu_);
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const std::uint32_t id = count_;
    RV_CHECK_LT(id, kMaxChunks * kChunkSize) << "symbol pool exhausted";
    const std::size_t chunk = id >> kChunkBits;
    std::string* slab = chunks_[chunk].load(std::memory_order_relaxed);
    if (slab == nullptr) {
      slab = new std::string[kChunkSize];
      chunks_[chunk].store(slab, std::memory_order_release);
    }
    std::string& slot = slab[id & (kChunkSize - 1)];
    slot.assign(s);
    index_.emplace(std::string_view(slot), id);
    count_ = id + 1;
    return id;
  }

  const std::string& str(std::uint32_t id) const {
    // Callers hold a Symbol whose creation happened-before this read (the
    // id crossed threads through some synchronizing edge, e.g. a joined
    // worker's record slot), so the slot is fully constructed. The acquire
    // load pairs with the release store of the chunk pointer.
    const std::string* slab =
        chunks_[id >> kChunkBits].load(std::memory_order_acquire);
    RV_CHECK(slab != nullptr) << "symbol id " << id << " not in pool";
    return slab[id & (kChunkSize - 1)];
  }

 private:
  SymbolPool() {
    const std::uint32_t empty = intern(std::string_view());
    RV_CHECK_EQ(empty, 0u);
  }

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string_view, std::uint32_t> index_;
  std::array<std::atomic<std::string*>, kMaxChunks> chunks_{};
  std::uint32_t count_ = 0;  // guarded by mu_
};

}  // namespace

Symbol::Symbol(std::string_view s) : id_(SymbolPool::instance().intern(s)) {}

const std::string& Symbol::str() const {
  return SymbolPool::instance().str(id_);
}

std::ostream& operator<<(std::ostream& os, Symbol s) { return os << s.str(); }

}  // namespace rv::util
