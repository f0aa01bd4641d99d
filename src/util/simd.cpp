#include "util/simd.hpp"

#include <atomic>
#include <cstring>

#include "util/env.hpp"

#if !defined(MESHPRAM_NO_SIMD) && defined(__x86_64__)
#define MESHPRAM_HAVE_AVX2_BUILD 1
#include <immintrin.h>
#else
#define MESHPRAM_HAVE_AVX2_BUILD 0
#endif

namespace meshpram::simd {

namespace {

/// -1 = undecided, 0 = scalar, 1 = avx2. Atomic: under the distributed
/// machine several rank threads can make the first kernel call at once, and
/// all must see a torn-free decision (every writer computes the same value,
/// so relaxed ordering suffices).
std::atomic<int> g_dispatch{-1};

bool cpu_and_env_allow() {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (!__builtin_cpu_supports("avx2")) return false;
  if (const auto v = env_str("MESHPRAM_SIMD")) {
    if (*v == "off" || *v == "0" || *v == "OFF") return false;
  }
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Scalar definitions (the semantic reference).

i64 first_key_violation_scalar(const void* recs, i64 rec_bytes, i64 n) {
  const unsigned char* p = static_cast<const unsigned char*>(recs);
  for (i64 i = 0; i + 1 < n; ++i) {
    u64 a, b;
    std::memcpy(&a, p + i * rec_bytes, sizeof(a));
    std::memcpy(&b, p + (i + 1) * rec_bytes, sizeof(b));
    if (a >= b) return i;
  }
  return n > 0 ? n - 1 : 0;
}

void and_bytes_scalar(unsigned char* dst, const unsigned char* a,
                      const unsigned char* b, i64 n) {
  for (i64 i = 0; i < n; ++i) dst[i] = static_cast<unsigned char>(a[i] & b[i]);
}

// ---------------------------------------------------------------------------
// AVX2 variants. Compiled with a function-level target so the translation
// unit (and everything else) keeps the baseline ISA.
#if MESHPRAM_HAVE_AVX2_BUILD

__attribute__((target("avx2"))) i64 first_key_violation_avx2(
    const void* recs, i64 rec_bytes, i64 n) {
  if (n < 2) return n > 0 ? n - 1 : 0;
  if (rec_bytes != 32) return first_key_violation_scalar(recs, rec_bytes, n);
  // 32-byte records: the leading keys of records i..i+3 sit 32 bytes apart.
  // Gather four keys by interleaving two strided loads, compare against the
  // shifted sequence; unsigned order via the sign-flip trick.
  const unsigned char* p = static_cast<const unsigned char*>(recs);
  const __m256i flip = _mm256_set1_epi64x(static_cast<long long>(1ULL << 63));
  i64 i = 0;
  for (; i + 5 <= n; i += 4) {
    // keys[i..i+4]: load the leading u64 of five consecutive records.
    const __m256i a = _mm256_set_epi64x(
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 3) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 2) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 1) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 0) * 32)));
    const __m256i b = _mm256_set_epi64x(
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 4) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 3) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 2) * 32)),
        static_cast<long long>(*reinterpret_cast<const u64*>(p + (i + 1) * 32)));
    // a[j] >= b[j]  <=>  NOT (a[j] < b[j])  (unsigned)
    const __m256i lt = _mm256_cmpgt_epi64(_mm256_xor_si256(b, flip),
                                          _mm256_xor_si256(a, flip));
    const int mask = _mm256_movemask_epi8(lt);
    if (mask != -1) {
      // Some lane not strictly increasing: find the first one.
      for (i64 j = i; j < i + 4; ++j) {
        u64 ka, kb;
        std::memcpy(&ka, p + j * 32, sizeof(ka));
        std::memcpy(&kb, p + (j + 1) * 32, sizeof(kb));
        if (ka >= kb) return j;
      }
    }
  }
  for (; i + 1 < n; ++i) {
    u64 ka, kb;
    std::memcpy(&ka, p + i * 32, sizeof(ka));
    std::memcpy(&kb, p + (i + 1) * 32, sizeof(kb));
    if (ka >= kb) return i;
  }
  return n - 1;
}

__attribute__((target("avx2"))) void and_bytes_avx2(unsigned char* dst,
                                                    const unsigned char* a,
                                                    const unsigned char* b,
                                                    i64 n) {
  i64 i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) dst[i] = static_cast<unsigned char>(a[i] & b[i]);
}

#endif  // MESHPRAM_HAVE_AVX2_BUILD

int dispatch() {
  int d = g_dispatch.load(std::memory_order_relaxed);
  if (d < 0) {
    d = cpu_and_env_allow() ? 1 : 0;
    g_dispatch.store(d, std::memory_order_relaxed);
  }
  return d;
}

}  // namespace

bool available() { return dispatch() == 1; }

void set_enabled(bool on) {
  g_dispatch.store((on && cpu_and_env_allow()) ? 1 : 0,
                   std::memory_order_relaxed);
}

const char* kernel_name() { return available() ? "avx2" : "scalar"; }

i64 first_key_violation(const void* recs, i64 rec_bytes, i64 n) {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (dispatch() == 1) return first_key_violation_avx2(recs, rec_bytes, n);
#endif
  return first_key_violation_scalar(recs, rec_bytes, n);
}

void and_bytes(unsigned char* dst, const unsigned char* a,
               const unsigned char* b, i64 n) {
#if MESHPRAM_HAVE_AVX2_BUILD
  if (dispatch() == 1) {
    and_bytes_avx2(dst, a, b, n);
    return;
  }
#endif
  and_bytes_scalar(dst, a, b, n);
}

}  // namespace meshpram::simd
