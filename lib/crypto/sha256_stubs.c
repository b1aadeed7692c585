/* SHA-256 on the x86-64 SHA extensions (SHA-NI).

   One call hashes a whole OCaml [string list]: streaming over the
   parts, padding and the big-endian output all happen here, so a
   digest costs one C call however many parts it has. The caller
   allocates the 32-byte result; nothing here allocates on the OCaml
   heap or touches the runtime, which is what makes the OCaml
   externals [@@noalloc].

   The round constants and the initial state are not transcribed: the
   OCaml side derives them (sha256.ml) and hands them over once through
   [algorand_sha256_ni_init], which also reads cpuid and reports
   whether this CPU can run the kernel. The intrinsics sit behind a
   function-level target attribute, so the file builds with the default
   compiler flags; off x86-64 it builds too, and reports "unavailable". */

#include <stdint.h>
#include <string.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

#define SHA_TARGET __attribute__((target("sha,sse4.1")))

/* Written once by [algorand_sha256_ni_init], read-only afterwards. */
static uint32_t k_words[64] __attribute__((aligned(16)));
static uint32_t h_init[8];

/* Leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1). */
static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return (b >> 29) & 1;
}

/* Four rounds: schedule words [w] plus their constants, two
   sha256rnds2 over the ABEF/CDGH halves of the state. */
#define QROUND(i, w)                                                          \
  do {                                                                        \
    __m128i m = _mm_add_epi32((w), _mm_load_si128((const __m128i *)&k_words[4 * (i)])); \
    s1 = _mm_sha256rnds2_epu32(s1, s0, m);                                    \
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(m, 0x0E));           \
  } while (0)

/* The next four schedule words, into [w0], from the last sixteen. */
#define SCHED(w0, w1, w2, w3)                                                 \
  (w0) = _mm_sha256msg2_epu32(                                                \
      _mm_add_epi32(_mm_sha256msg1_epu32((w0), (w1)), _mm_alignr_epi8((w3), (w2), 4)), (w3))

/* Compress [n] whole 64-byte blocks at [p] into the chaining value [h]. */
SHA_TARGET static void ni_blocks(uint32_t h[8], const uint8_t *p, size_t n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[0]), 0xB1); /* CDAB */
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&h[4]), 0x1B); /* EFGH */
  __m128i s0 = _mm_alignr_epi8(t, s1, 8);    /* ABEF */
  s1 = _mm_blend_epi16(s1, t, 0xF0);         /* CDGH */
  for (; n > 0; n--, p += 64) {
    __m128i abef = s0, cdgh = s1;
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    QROUND(0, w0);
    QROUND(1, w1);
    QROUND(2, w2);
    QROUND(3, w3);
    for (int i = 4; i < 16; i += 4) {
      SCHED(w0, w1, w2, w3);
      QROUND(i, w0);
      SCHED(w1, w2, w3, w0);
      QROUND(i + 1, w1);
      SCHED(w2, w3, w0, w1);
      QROUND(i + 2, w2);
      SCHED(w3, w0, w1, w2);
      QROUND(i + 3, w3);
    }
    s0 = _mm_add_epi32(s0, abef);
    s1 = _mm_add_epi32(s1, cdgh);
  }
  t = _mm_shuffle_epi32(s0, 0x1B);           /* FEBA */
  s1 = _mm_shuffle_epi32(s1, 0xB1);          /* DCHG */
  s0 = _mm_blend_epi16(t, s1, 0xF0);         /* DCBA */
  s1 = _mm_alignr_epi8(s1, t, 8);            /* HGFE */
  _mm_storeu_si128((__m128i *)&h[0], s0);
  _mm_storeu_si128((__m128i *)&h[4], s1);
}

/* [fill] bytes of a partial block wait in [buf]: whole blocks are
   compressed straight out of [p], only bytes that straddle a part
   boundary are copied. */
SHA_TARGET static void ni_feed(uint32_t h[8], uint8_t buf[64], size_t *fill,
                               const uint8_t *p, size_t len)
{
  if (*fill > 0) {
    size_t n = 64 - *fill;
    if (n > len) n = len;
    memcpy(buf + *fill, p, n);
    *fill += n;
    p += n;
    len -= n;
    if (*fill < 64) return;
    ni_blocks(h, buf, 1);
    *fill = 0;
  }
  if (len >= 64) {
    ni_blocks(h, p, len / 64);
    p += len & ~(size_t)63;
    len &= 63;
  }
  if (len > 0) {
    memcpy(buf, p, len);
    *fill = len;
  }
}

/* [parts] : string list, [out] : 32-byte bytes. */
SHA_TARGET value algorand_sha256_ni_digest(value parts, value out)
{
  uint32_t h[8];
  uint8_t buf[64];
  size_t fill = 0;
  uint64_t total = 0;
  memcpy(h, h_init, sizeof h);
  for (; parts != Val_emptylist; parts = Field(parts, 1)) {
    value s = Field(parts, 0);
    size_t len = caml_string_length(s);
    ni_feed(h, buf, &fill, (const uint8_t *)String_val(s), len);
    total += len;
  }
  /* Padding: 0x80, zeroes, then the 64-bit big-endian bit length. */
  buf[fill++] = 0x80;
  if (fill > 56) {
    memset(buf + fill, 0, 64 - fill);
    ni_blocks(h, buf, 1);
    fill = 0;
  }
  memset(buf + fill, 0, 56 - fill);
  total *= 8;
  for (int i = 0; i < 8; i++) buf[56 + i] = (uint8_t)(total >> (56 - 8 * i));
  ni_blocks(h, buf, 1);
  uint8_t *o = Bytes_val(out);
  for (int i = 0; i < 8; i++) {
    o[4 * i] = (uint8_t)(h[i] >> 24);
    o[4 * i + 1] = (uint8_t)(h[i] >> 16);
    o[4 * i + 2] = (uint8_t)(h[i] >> 8);
    o[4 * i + 3] = (uint8_t)h[i];
  }
  return Val_unit;
}

/* [k] : the 64 round constants, [h0] : the 8 initial words, both as
   OCaml int arrays. Returns whether this CPU runs the kernel. */
value algorand_sha256_ni_init(value k, value h0)
{
  if (!cpu_has_sha_ni()) return Val_false;
  for (int i = 0; i < 64; i++) k_words[i] = (uint32_t)Long_val(Field(k, i));
  for (int i = 0; i < 8; i++) h_init[i] = (uint32_t)Long_val(Field(h0, i));
  return Val_true;
}

#else

value algorand_sha256_ni_init(value k, value h0)
{
  (void)k;
  (void)h0;
  return Val_false;
}

/* Unreachable: the OCaml side calls this only after init said yes. */
value algorand_sha256_ni_digest(value parts, value out)
{
  (void)parts;
  (void)out;
  abort();
}

#endif
