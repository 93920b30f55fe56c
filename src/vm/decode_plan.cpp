#include "src/vm/decode_plan.hpp"

#include <cstring>
#include <mutex>

#include "src/isa/disasm.hpp"

namespace connlab::vm {

namespace {

// One round of the content hash: a multiply by an odd constant and an
// xorshift, each a bijection on 64-bit words. Two inputs of one length that
// differ in a single word therefore reach different states after that word,
// and every later round (and the final mix) keeps them apart.
constexpr std::uint64_t Mix(std::uint64_t h) noexcept {
  h *= 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

}  // namespace

std::uint64_t DecodePlan::HashContent(util::ByteSpan bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = Mix(0xcbf29ce484222325ULL ^ n);
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = Mix(h ^ word);
  }
  if (n != 0) {
    std::uint64_t tail = 0;  // zero-padded; the seeded length tells tails apart
    std::memcpy(&tail, p, n);
    h = Mix(h ^ tail);
  }
  // murmur3's fmix64: every input bit reaches every output bit.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

std::shared_ptr<const DecodePlan> DecodePlan::Build(
    isa::Arch arch, const mem::Segment& seg, std::uint64_t content_hash) {
  auto plan = std::shared_ptr<DecodePlan>(new DecodePlan());
  plan->arch_ = arch;
  plan->base_ = seg.base();
  plan->size_ = seg.size();
  plan->hash_ = content_hash;
  const util::ByteSpan bytes(seg.data().data(), seg.data().size());
  const std::uint32_t step = arch == isa::Arch::kVARM ? isa::kVARMInstrSize : 1;
  plan->entries_.resize(plan->size_ / step + (plan->size_ % step != 0));
  for (std::uint32_t off = 0; off < plan->size_; off += step) {
    auto decoded = isa::Decode(arch, bytes, off);
    if (!decoded.ok()) continue;  // entry stays length == 0 (invalid)
    plan->entries_[off / step] = decoded.value();
    ++plan->valid_;
  }
  return plan;
}

DecodePlanRegistry& DecodePlanRegistry::Instance() {
  static DecodePlanRegistry registry;
  return registry;
}

std::shared_ptr<const DecodePlan> DecodePlanRegistry::GetOrBuild(
    isa::Arch arch, const mem::Segment& seg) {
  Key key{static_cast<std::uint8_t>(arch), seg.base(), seg.size(),
          DecodePlan::HashContent(seg.data()), seg.name()};
  {
    // The hot path — every post-crash reboot of every worker lands here —
    // takes only a reader lock, so concurrent lookups never serialise.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      shares_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside any lock: cold boots of *different* images proceed in
  // parallel instead of queueing behind one mutex. Two workers racing to
  // build the same image both decode it, but only one insert wins and the
  // loser adopts the winner's plan — a rare duplicate decode, paid once per
  // image, beats serialising every boot in the fleet.
  std::shared_ptr<const DecodePlan> plan =
      DecodePlan::Build(arch, seg, key.hash);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = plans_.try_emplace(key, plan);
  if (!inserted) {
    shares_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (plans_.size() > kMaxPlans && !insertion_order_.empty()) {
    plans_.erase(insertion_order_.front());
    insertion_order_.pop_front();
  }
  insertion_order_.push_back(std::move(key));
  return plan;
}

DecodePlanRegistry::Stats DecodePlanRegistry::GetStats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return Stats{builds_.load(std::memory_order_relaxed),
               shares_.load(std::memory_order_relaxed), plans_.size()};
}

void DecodePlanRegistry::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  plans_.clear();
  insertion_order_.clear();
}

}  // namespace connlab::vm
