#include "src/name/minhash.h"

#include <algorithm>
#include <limits>

#include "src/common/macros.h"
#include "src/common/rng.h"

namespace largeea {

MinHasher::MinHasher(int32_t num_permutations, uint64_t seed) {
  LARGEEA_CHECK_GT(num_permutations, 0);
  Rng rng(seed);
  mult_.resize(num_permutations);
  add_.resize(num_permutations);
  for (int32_t i = 0; i < num_permutations; ++i) {
    mult_[i] = rng.Next() | 1;  // odd multiplier: bijective mod 2^64
    add_[i] = rng.Next();
  }
}

std::vector<uint64_t> MinHasher::Signature(
    const std::vector<std::string>& tokens) const {
  std::vector<uint64_t> signature(mult_.size(),
                                  std::numeric_limits<uint64_t>::max());
  for (const std::string& token : tokens) {
    const uint64_t h = TokenHash(token);
    for (size_t i = 0; i < mult_.size(); ++i) {
      const uint64_t permuted = h * mult_[i] + add_[i];
      if (permuted < signature[i]) signature[i] = permuted;
    }
  }
  return signature;
}

double MinHasher::EstimateJaccard(const std::vector<uint64_t>& a,
                                  const std::vector<uint64_t>& b) {
  LARGEEA_CHECK_EQ(a.size(), b.size());
  LARGEEA_CHECK(!a.empty());
  int64_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++equal;
  }
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

MinHashLsh::MinHashLsh(int32_t num_bands, int32_t rows_per_band,
                       const std::vector<std::vector<uint64_t>>& signatures)
    : num_bands_(num_bands),
      rows_per_band_(rows_per_band),
      bands_(num_bands) {
  LARGEEA_CHECK_GT(num_bands, 0);
  LARGEEA_CHECK_GT(rows_per_band, 0);
  for (int32_t band = 0; band < num_bands_; ++band) {
    std::vector<Entry>& entries = bands_[band];
    entries.reserve(signatures.size());
    for (size_t id = 0; id < signatures.size(); ++id) {
      entries.push_back(
          Entry{BandKey(signatures[id], band), static_cast<int32_t>(id)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.key != b.key ? a.key < b.key : a.id < b.id;
              });
  }
}

uint64_t MinHashLsh::BandKey(const std::vector<uint64_t>& signature,
                             int32_t band) const {
  LARGEEA_CHECK_EQ(static_cast<int32_t>(signature.size()),
                   num_bands_ * rows_per_band_);
  uint64_t key = 0xcbf29ce484222325ULL;
  for (int32_t r = 0; r < rows_per_band_; ++r) {
    key ^= signature[static_cast<size_t>(band) * rows_per_band_ + r];
    key *= 0x100000001b3ULL;
  }
  return key;
}

void MinHashLsh::AppendBucket(const std::vector<uint64_t>& signature,
                              int32_t band, std::vector<int32_t>& out) const {
  const std::vector<Entry>& entries = bands_[band];
  const uint64_t key = BandKey(signature, band);
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const Entry& entry, uint64_t k) { return entry.key < k; });
  for (; it != entries.end() && it->key == key; ++it) out.push_back(it->id);
}

std::vector<int32_t> MinHashLsh::Query(
    const std::vector<uint64_t>& signature) const {
  std::vector<int32_t> candidates;
  for (int32_t band = 0; band < num_bands_; ++band) {
    AppendBucket(signature, band, candidates);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

std::vector<int32_t> MinHashLsh::QueryTop(
    const std::vector<uint64_t>& signature, int32_t limit) const {
  std::vector<int32_t> collisions;  // one entry per (band, id) collision
  for (int32_t band = 0; band < num_bands_; ++band) {
    AppendBucket(signature, band, collisions);
  }
  std::sort(collisions.begin(), collisions.end());

  // Run-length encode into (id, band count); ids stay ascending.
  std::vector<std::pair<int32_t, int32_t>> counted;
  for (size_t i = 0; i < collisions.size();) {
    size_t j = i;
    while (j < collisions.size() && collisions[j] == collisions[i]) ++j;
    counted.push_back({collisions[i], static_cast<int32_t>(j - i)});
    i = j;
  }
  if (limit > 0 && static_cast<int32_t>(counted.size()) > limit) {
    std::nth_element(counted.begin(), counted.begin() + limit, counted.end(),
                     [](const std::pair<int32_t, int32_t>& a,
                        const std::pair<int32_t, int32_t>& b) {
                       if (a.second != b.second) return a.second > b.second;
                       return a.first < b.first;
                     });
    counted.resize(limit);
  }
  std::vector<int32_t> ids;
  ids.reserve(counted.size());
  for (const auto& [id, count] : counted) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace largeea
