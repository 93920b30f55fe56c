#include "src/fuzz/coverage.hpp"

#include <algorithm>
#include <cstdio>

namespace connlab::fuzz {

namespace {
// 256-entry class lookup built once: raw count -> single class bit.
struct ClassTable {
  std::array<std::uint8_t, 256> t{};
  constexpr ClassTable() {
    for (int i = 0; i < 256; ++i) {
      std::uint8_t cls = 0;
      if (i == 0) cls = 0;
      else if (i == 1) cls = 1u << 0;
      else if (i == 2) cls = 1u << 1;
      else if (i == 3) cls = 1u << 2;
      else if (i <= 7) cls = 1u << 3;
      else if (i <= 15) cls = 1u << 4;
      else if (i <= 31) cls = 1u << 5;
      else if (i <= 127) cls = 1u << 6;
      else cls = 1u << 7;
      t[static_cast<std::size_t>(i)] = cls;
    }
  }
};
constexpr ClassTable kClasses;

}  // namespace

std::uint8_t CountClass(std::uint8_t raw) noexcept { return kClasses.t[raw]; }

void CoverageMap::Classify() noexcept {
  for (const std::uint16_t i : touched_) map_[i] = kClasses.t[map_[i]];
}

void CoverageMap::MergeClassified(const CoverageMap& other) {
  for (const std::uint16_t i : other.touched_) {
    if (map_[i] == 0) touched_.push_back(i);
    map_[i] |= other.map_[i];
  }
}

int CoverageMap::AbsorbInto(CoverageMap& virgin,
                            std::vector<CoverageDelta>* delta) const {
  int news = 0;
  for (const std::uint16_t i : touched_) {
    const std::uint8_t fresh = map_[i];
    std::uint8_t& v = virgin.map_[i];
    const auto gained = static_cast<std::uint8_t>(fresh & ~v);
    if (gained == 0) continue;
    if (v == 0) {
      news = 2;
      virgin.touched_.push_back(i);
    } else if (news == 0) {
      news = 1;
    }
    if (delta != nullptr) delta->push_back(CoverageDelta{i, gained});
    v |= fresh;
  }
  return news;
}

void CoverageMap::ApplyDelta(std::span<const CoverageDelta> delta) {
  for (const CoverageDelta& d : delta) {
    const auto index = static_cast<std::uint16_t>(d.index & kMask);
    if (map_[index] == 0 && d.bits != 0) touched_.push_back(index);
    map_[index] |= d.bits;
  }
}

std::uint64_t CoverageMap::Digest() const {
  // FNV-1a over (index, value) pairs of non-zero cells, ascending index.
  std::vector<std::uint16_t> order(touched_.begin(), touched_.end());
  std::sort(order.begin(), order.end());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint16_t i : order) {
    h = (h ^ i) * 0x100000001b3ULL;
    h = (h ^ map_[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::string CoverageMap::Summary() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%u/%u cells", CountNonZero(), kSize);
  return buf;
}

}  // namespace connlab::fuzz
