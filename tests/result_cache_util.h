// Test helpers over the Result Cache's byte API: tuples go in encoded with a
// schema (as Smooth Scan copies them off a page) and come back decoded.

#ifndef SMOOTHSCAN_TESTS_RESULT_CACHE_UTIL_H_
#define SMOOTHSCAN_TESTS_RESULT_CACHE_UTIL_H_

#include <optional>
#include <vector>

#include "access/result_cache.h"

namespace smoothscan {

/// Encodes `tuple` with `schema` and caches it for `tid` under `key`.
inline void CachePut(ResultCache* cache, int64_t key, Tid tid,
                     const Tuple& tuple, const Schema& schema) {
  std::vector<uint8_t> bytes;
  schema.Serialize(tuple, &bytes);
  cache->Insert(key, tid, bytes.data(), static_cast<uint32_t>(bytes.size()));
}

/// One-column INT64 shorthand: caches the tuple {value}.
inline void CachePut(ResultCache* cache, int64_t key, Tid tid, int64_t value) {
  CachePut(cache, key, tid, Tuple{Value::Int64(value)}, MakeIntSchema(1));
}

/// Takes (key, tid) out of the cache, decoded with `schema`.
inline std::optional<Tuple> CacheTake(ResultCache* cache, int64_t key,
                                      Tid tid, const Schema& schema) {
  Tuple tuple;
  if (!cache->Take(key, tid, schema, &tuple)) return std::nullopt;
  return tuple;
}

/// One-column INT64 shorthand.
inline std::optional<Tuple> CacheTake(ResultCache* cache, int64_t key,
                                      Tid tid) {
  return CacheTake(cache, key, tid, MakeIntSchema(1));
}

}  // namespace smoothscan

#endif  // SMOOTHSCAN_TESTS_RESULT_CACHE_UTIL_H_
