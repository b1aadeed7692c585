/* GF(2^255 - 19) multiply and square over Fe25519's limb arrays.

   A field element is an OCaml [int array] of ten 26-bit limbs, weakly
   reduced: limbs 0..8 below 2^26, limb 9 below 2^21 + 8 (fe25519.ml).
   Each call loads the limbs as five 52-bit words, w_j = l_2j +
   l_(2j+1) * 2^26, forms the product columns in 128-bit integers,
   reduces, and stores ten limbs in the same weak form. Every operand
   is loaded before the first store, so the destination may alias
   either operand. The limbs are immediate ints, so the stores need no
   write barrier: nothing here allocates or touches the runtime, which
   is what makes the OCaml externals [@@noalloc].

   Bounds behind the arithmetic:

   - words 0..3 are below 2^52 and word 4 below 2^47 + 2^30;
   - column 5+m is worth 2^(260+52m) = 608 * 2^52m (mod p), since
     2^255 = 19 (mod p) and 19 * 2^5 = 608. The kernel folds it into
     column m by multiplying the operand word by 608 first (below
     2^62), so a folded column sums at most five products below
     2^52 * 2^62, under 2^117;
   - one carry pass in 128 bits leaves word 4 below 2^107; its bits
     from 2^255 up (word 4 >> 47, below 2^60) fold into word 0 with
     x19, and a second carry pass carries at most 1 into word 4,
     which ends at most 2^47, so limb 9 is at most 2^21.

   The kernel needs [unsigned __int128]. Where the compiler lacks it
   the file still builds and [algorand_fe25519_available] answers
   false, so the OCaml side keeps its own kernel. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__SIZEOF_INT128__)

typedef unsigned __int128 u128;

#define MASK26 ((uint64_t)0x3ffffff)
#define MASK47 (((uint64_t)1 << 47) - 1)
#define MASK52 (((uint64_t)1 << 52) - 1)

#define LIMB(a, i) ((uint64_t)Long_val(Field((a), (i))))
#define WORD(a, j) (LIMB((a), 2 * (j)) + (LIMB((a), 2 * (j) + 1) << 26))

/* Carry the folded columns r0..r4, fold bits 255 and up with x19,
   carry again, and store the ten limbs of the result into [dst]. */
static inline void reduce_store(value dst, u128 r0, u128 r1, u128 r2, u128 r3, u128 r4)
{
  r1 += r0 >> 52;
  r2 += r1 >> 52;
  r3 += r2 >> 52;
  r4 += r3 >> 52;
  u128 t0 = (u128)((uint64_t)r0 & MASK52) + (u128)19 * (uint64_t)(r4 >> 47);
  uint64_t w0 = (uint64_t)t0 & MASK52;
  uint64_t w1 = ((uint64_t)r1 & MASK52) + (uint64_t)(t0 >> 52);
  uint64_t w2 = ((uint64_t)r2 & MASK52) + (w1 >> 52);
  uint64_t w3 = ((uint64_t)r3 & MASK52) + (w2 >> 52);
  w1 &= MASK52;
  w2 &= MASK52;
  uint64_t w4 = ((uint64_t)r4 & MASK47) + (w3 >> 52);
  w3 &= MASK52;
  Field(dst, 0) = Val_long(w0 & MASK26);
  Field(dst, 1) = Val_long(w0 >> 26);
  Field(dst, 2) = Val_long(w1 & MASK26);
  Field(dst, 3) = Val_long(w1 >> 26);
  Field(dst, 4) = Val_long(w2 & MASK26);
  Field(dst, 5) = Val_long(w2 >> 26);
  Field(dst, 6) = Val_long(w3 & MASK26);
  Field(dst, 7) = Val_long(w3 >> 26);
  Field(dst, 8) = Val_long(w4 & MASK26);
  Field(dst, 9) = Val_long(w4 >> 26);
}

/* dst := a * b. */
value algorand_fe25519_mul(value dst, value a, value b)
{
  uint64_t a0 = WORD(a, 0), a1 = WORD(a, 1), a2 = WORD(a, 2), a3 = WORD(a, 3), a4 = WORD(a, 4);
  uint64_t b0 = WORD(b, 0), b1 = WORD(b, 1), b2 = WORD(b, 2), b3 = WORD(b, 3), b4 = WORD(b, 4);
  uint64_t f1 = 608 * b1, f2 = 608 * b2, f3 = 608 * b3, f4 = 608 * b4;
  reduce_store(dst,
               (u128)a0 * b0 + (u128)a1 * f4 + (u128)a2 * f3 + (u128)a3 * f2 + (u128)a4 * f1,
               (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * f4 + (u128)a3 * f3 + (u128)a4 * f2,
               (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * f4 + (u128)a4 * f3,
               (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * f4,
               (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0);
  return Val_unit;
}

/* dst := a^2: the symmetric products once, against doubled words. */
value algorand_fe25519_sqr(value dst, value a)
{
  uint64_t a0 = WORD(a, 0), a1 = WORD(a, 1), a2 = WORD(a, 2), a3 = WORD(a, 3), a4 = WORD(a, 4);
  uint64_t d0 = 2 * a0, d1 = 2 * a1;
  uint64_t f3 = 608 * a3, f4 = 608 * a4, g3 = 2 * f3, g4 = 2 * f4;
  reduce_store(dst,
               (u128)a0 * a0 + (u128)a1 * g4 + (u128)a2 * g3,
               (u128)d0 * a1 + (u128)a2 * g4 + (u128)a3 * f3,
               (u128)d0 * a2 + (u128)a1 * a1 + (u128)a3 * g4,
               (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * f4,
               (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
  return Val_unit;
}

value algorand_fe25519_available(value unit)
{
  (void)unit;
  return Val_true;
}

#else

value algorand_fe25519_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* Unreachable: the OCaml side calls these only after [available]
   said yes. */
value algorand_fe25519_mul(value dst, value a, value b)
{
  (void)dst;
  (void)a;
  (void)b;
  abort();
}

value algorand_fe25519_sqr(value dst, value a)
{
  (void)dst;
  (void)a;
  abort();
}

#endif
