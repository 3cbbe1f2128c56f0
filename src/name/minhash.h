// MinHash signatures and LSH banding (datasketch substitute).
//
// STNS needs the Jaccard-similar name pairs without comparing all
// |Es| x |Et| names. MinHash signatures estimate Jaccard similarity of
// token sets; LSH banding buckets signatures so that pairs above the
// threshold collide in at least one band with high probability.
#ifndef LARGEEA_NAME_MINHASH_H_
#define LARGEEA_NAME_MINHASH_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/name/tokenizer.h"

namespace largeea {

/// A fixed family of `num_permutations` universal hash functions; all
/// signatures meant to be compared must come from the same family.
class MinHasher {
 public:
  MinHasher(int32_t num_permutations, uint64_t seed);

  /// Signature of a token multiset (duplicates are irrelevant). An empty
  /// token list yields the all-max signature (similar to nothing).
  std::vector<uint64_t> Signature(
      const std::vector<std::string>& tokens) const;

  /// Jaccard estimate: fraction of positions where signatures agree.
  static double EstimateJaccard(const std::vector<uint64_t>& a,
                                const std::vector<uint64_t>& b);

  int32_t num_permutations() const {
    return static_cast<int32_t>(mult_.size());
  }

 private:
  std::vector<uint64_t> mult_;
  std::vector<uint64_t> add_;
};

/// LSH banding over MinHash signatures: signatures are split into
/// `num_bands` bands of `rows_per_band` values; two items collide if any
/// band hashes identically. Immutable once built, so concurrent queries
/// need no synchronisation.
class MinHashLsh {
 public:
  /// Indexes `signatures[id]` under id for every id. Each signature must
  /// have num_bands * rows_per_band values.
  MinHashLsh(int32_t num_bands, int32_t rows_per_band,
             const std::vector<std::vector<uint64_t>>& signatures);

  /// Returns the de-duplicated ids colliding with `signature`.
  std::vector<int32_t> Query(const std::vector<uint64_t>& signature) const;

  /// Like Query(), but keeps at most `limit` ids, preferring those that
  /// collide in more bands (a higher band count is a higher Jaccard
  /// estimate). Ties and the returned order are id-ascending, so the
  /// cut is deterministic. With `limit <= 0` or fewer collisions than
  /// `limit`, identical to Query(). Serving uses this to bound the
  /// re-rank cost of one query against a popular bucket.
  std::vector<int32_t> QueryTop(const std::vector<uint64_t>& signature,
                                int32_t limit) const;

 private:
  struct Entry {
    uint64_t key;
    int32_t id;
  };

  uint64_t BandKey(const std::vector<uint64_t>& signature,
                   int32_t band) const;

  /// Appends every id whose band-`band` key matches `signature`'s, in
  /// ascending id order.
  void AppendBucket(const std::vector<uint64_t>& signature, int32_t band,
                    std::vector<int32_t>& out) const;

  int32_t num_bands_;
  int32_t rows_per_band_;
  /// Per band, one entry per id sorted by (key, id): a bucket is a run
  /// of equal keys. Flat arrays instead of a hash map of vectors: no
  /// allocation per bucket to build or free.
  std::vector<std::vector<Entry>> bands_;
};

}  // namespace largeea

#endif  // LARGEEA_NAME_MINHASH_H_
