// Explicitly vectorized hot-path kernels with runtime dispatch.
//
// Policy (DESIGN.md §12): every kernel has an always-compiled scalar
// implementation that is the semantic definition; the AVX2 variant is an
// exact drop-in (bit-identical outputs, enforced by the layout/SIMD test
// suite) selected at runtime when (a) the build enabled SIMD
// (MESHPRAM_SIMD CMake option, default ON), (b) the CPU reports AVX2, and
// (c) the MESHPRAM_SIMD environment variable is not "off"/"0". The AVX2
// bodies are compiled with a function-level target attribute, so the rest of
// the binary stays portable baseline code.
#pragma once

#include "util/math.hpp"

namespace meshpram::simd {

/// True when the AVX2 kernel variants are in use. Cached after first call;
/// set_enabled() below overrides it (tests force both paths).
bool available();

/// Forces the scalar (false) or, if the build/CPU allow it, the AVX2 (true)
/// kernels, overriding the environment gate. For the equivalence tests.
void set_enabled(bool on);

/// Human-readable dispatch state ("avx2" or "scalar") for bench metadata.
const char* kernel_name();

/// First index i in [0, n-1) where key[i] >= key[i+1], reading the leading
/// u64 of each `rec_bytes`-sized record; n-1 when the key sequence is
/// strictly increasing (then the records are sorted under any key-first
/// order with no ties to check). The caller resumes its full comparator walk
/// at the returned index. rec_bytes must be a multiple of 8.
i64 first_key_violation(const void* recs, i64 rec_bytes, i64 n);

/// dst[i] = a[i] & b[i] for n bytes (the CULLING candidate-bitmap
/// intersection sweep).
void and_bytes(unsigned char* dst, const unsigned char* a,
               const unsigned char* b, i64 n);

}  // namespace meshpram::simd
