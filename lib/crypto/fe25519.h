/* GF(2^255 - 19) in five 52-bit words: the arithmetic shared by the
   field kernel (fe25519_stubs.c) and the point kernel
   (ed25519_stubs.c).

   An OCaml field element is an [int array] of ten 26-bit limbs,
   weakly reduced: limbs 0..8 below 2^26, limb 9 below 2^21 + 8
   (fe25519.ml). Here it is five words w_j = l_2j + l_(2j+1) * 2^26,
   loaded from the limbs once and stored back once, however many
   operations run in between. The limbs are immediate ints, so the
   stores need no write barrier: nothing here allocates or touches
   the runtime, which is what makes the OCaml externals [@@noalloc].

   Word forms behind the arithmetic:

   - tight: words 0, 2 and 3 below 2^52, word 1 below 2^52 + 2^17,
     word 4 below 2^47 + 2^30. A loaded element is tight (limb 9 below
     2^21 + 8), and so is every result of [fe_mul], [fe_sqr], [fe_add]
     and [fe_sub]. Their word 4 ends below 2^47 + 16, so [fe_store],
     after carrying word 1's excess up, writes limbs in the weak form
     above (limb 9 below 2^21 + 1);
   - loose: words 0..3 below 2^54 + 2^19, word 4 below 2^50. [fe_mul]
     and [fe_sqr] accept loose operands, so a sum or difference that
     only feeds a product skips its carry pass. [fe_add_loose] of two
     tight elements is below 2^53 + 2^18 (word 4 below 2^48 + 2^31);
     [fe_sub_loose] adds 2p word by word to a tight subtrahend, which
     keeps every word nonnegative and adds less than 2^53 (word 4 less
     than 2^48) to the minuend; and every sum or difference the point
     formulas (ed25519_stubs.c) feed a product is one of these of
     tight elements, a difference of such a sum and a tight element, or
     a tight element plus a difference of two tight ones, all loose;
   - in a product, column 5+m is worth 2^(260+52m) = 608 * 2^52m
     (mod p), since 2^255 = 19 (mod p) and 19 * 2^5 = 608. The multiply
     folds it into column m by multiplying the operand word by 608
     first (below 2^63.3 for a loose word), so a folded column sums at
     most five products below 2^54.01 * 2^63.3, under 2^120; squaring
     doubles the other factor of a doubled product instead (below
     2^55.01);
   - column 4 holds no folded product, and at most two of its products
     involve a word 4, so one carry pass in 128 bits leaves word 4
     below 2^110; its bits from 2^255 up (word 4 >> 47, below 2^63)
     fold into word 0 with x19, and word 0's carry (below 2^16) goes
     to word 1 and no further: that is the 2^17 of the tight form, and
     it keeps the carries off the path from one product to the next;
   - [fe_add] sums stay below 2^54 and [fe_sub] adds 4p word by word,
     which keeps every word nonnegative and below 2^55; one carry pass,
     begun by folding word 4's bits from 2^255 up (at most 7) with x19,
     carries at most 8 into word 4 and leaves words 0..3 below 2^52.

   Everything here needs [unsigned __int128]; the including files
   guard it with [FE25519_WORDS]. */

#ifndef ALGORAND_FE25519_H
#define ALGORAND_FE25519_H

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__SIZEOF_INT128__)

#define FE25519_WORDS 1

typedef unsigned __int128 u128;

typedef struct {
  uint64_t w[5];
} fe;

#define MASK26 ((uint64_t)0x3ffffff)
#define MASK47 (((uint64_t)1 << 47) - 1)
#define MASK52 (((uint64_t)1 << 52) - 1)

#define LIMB(a, i) ((uint64_t)Long_val(((const value *)Op_val(a))[i]))

static inline void fe_load(fe *r, value a)
{
  for (int j = 0; j < 5; j++) r->w[j] = LIMB(a, 2 * j) + (LIMB(a, 2 * j + 1) << 26);
}

/* Store a tight element: word 1's excess carries up (at most 1 into
   each word above it) first. */
static inline void fe_store(value dst, const fe *a)
{
  uint64_t w[5] = { a->w[0], a->w[1], a->w[2], a->w[3], a->w[4] };
  for (int j = 1; j < 4; j++) {
    w[j + 1] += w[j] >> 52;
    w[j] &= MASK52;
  }
  for (int j = 0; j < 5; j++) {
    Field(dst, 2 * j) = Val_long(w[j] & MASK26);
    Field(dst, 2 * j + 1) = Val_long(w[j] >> 26);
  }
}

/* Carry the folded product columns r0..r4 into [r]: fold bits 255 and
   up into word 0 with x19, and its carry into word 1. */
static inline void fe_reduce(fe *r, u128 r0, u128 r1, u128 r2, u128 r3, u128 r4)
{
  r1 += r0 >> 52;
  r2 += r1 >> 52;
  r3 += r2 >> 52;
  r4 += r3 >> 52;
  u128 t0 = (u128)((uint64_t)r0 & MASK52) + (u128)19 * (uint64_t)(r4 >> 47);
  r->w[0] = (uint64_t)t0 & MASK52;
  r->w[1] = ((uint64_t)r1 & MASK52) + (uint64_t)(t0 >> 52);
  r->w[2] = (uint64_t)r2 & MASK52;
  r->w[3] = (uint64_t)r3 & MASK52;
  r->w[4] = (uint64_t)r4 & MASK47;
}

/* r := a * b; [r] may alias either operand. */
static inline void fe_mul(fe *r, const fe *a, const fe *b)
{
  uint64_t a0 = a->w[0], a1 = a->w[1], a2 = a->w[2], a3 = a->w[3], a4 = a->w[4];
  uint64_t b0 = b->w[0], b1 = b->w[1], b2 = b->w[2], b3 = b->w[3], b4 = b->w[4];
  uint64_t f1 = 608 * b1, f2 = 608 * b2, f3 = 608 * b3, f4 = 608 * b4;
  fe_reduce(r,
            (u128)a0 * b0 + (u128)a1 * f4 + (u128)a2 * f3 + (u128)a3 * f2 + (u128)a4 * f1,
            (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * f4 + (u128)a3 * f3 + (u128)a4 * f2,
            (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * f4 + (u128)a4 * f3,
            (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * f4,
            (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0);
}

/* r := a^2: the symmetric products once, against doubled words. */
static inline void fe_sqr(fe *r, const fe *a)
{
  uint64_t a0 = a->w[0], a1 = a->w[1], a2 = a->w[2], a3 = a->w[3], a4 = a->w[4];
  uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2, d3 = 2 * a3;
  uint64_t f3 = 608 * a3, f4 = 608 * a4;
  fe_reduce(r,
            (u128)a0 * a0 + (u128)d1 * f4 + (u128)d2 * f3,
            (u128)d0 * a1 + (u128)d2 * f4 + (u128)a3 * f3,
            (u128)d0 * a2 + (u128)a1 * a1 + (u128)d3 * f4,
            (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * f4,
            (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

/* Fold word 4's bits from 2^255 up into word 0 with x19, then carry
   once up to word 4. */
static inline void fe_carry(fe *r, uint64_t c0, uint64_t c1, uint64_t c2, uint64_t c3, uint64_t c4)
{
  c0 += 19 * (c4 >> 47);
  c1 += c0 >> 52;
  c2 += c1 >> 52;
  c3 += c2 >> 52;
  r->w[0] = c0 & MASK52;
  r->w[1] = c1 & MASK52;
  r->w[2] = c2 & MASK52;
  r->w[3] = c3 & MASK52;
  r->w[4] = (c4 & MASK47) + (c3 >> 52);
}

static inline void fe_add(fe *r, const fe *a, const fe *b)
{
  fe_carry(r, a->w[0] + b->w[0], a->w[1] + b->w[1], a->w[2] + b->w[2], a->w[3] + b->w[3],
           a->w[4] + b->w[4]);
}

/* 4p in words: [4 * (2^52 - 19); 4 * (2^52 - 1) x3; 4 * (2^47 - 1)],
   and 2p likewise. Each word of either exceeds the matching word bound
   of the tight form. */
#define P4_0 (4 * (MASK52 - 18))
#define P4_I (4 * MASK52)
#define P4_4 (4 * MASK47)
#define P2_0 (2 * (MASK52 - 18))
#define P2_I (2 * MASK52)
#define P2_4 (2 * MASK47)

static inline void fe_sub(fe *r, const fe *a, const fe *b)
{
  fe_carry(r, a->w[0] + P4_0 - b->w[0], a->w[1] + P4_I - b->w[1], a->w[2] + P4_I - b->w[2],
           a->w[3] + P4_I - b->w[3], a->w[4] + P4_4 - b->w[4]);
}

/* Sum and difference without the carry pass, for operands of a
   product only; [b] of [fe_sub_loose] must be tight. */
static inline void fe_add_loose(fe *r, const fe *a, const fe *b)
{
  for (int j = 0; j < 5; j++) r->w[j] = a->w[j] + b->w[j];
}

static inline void fe_sub_loose(fe *r, const fe *a, const fe *b)
{
  r->w[0] = a->w[0] + P2_0 - b->w[0];
  r->w[1] = a->w[1] + P2_I - b->w[1];
  r->w[2] = a->w[2] + P2_I - b->w[2];
  r->w[3] = a->w[3] + P2_I - b->w[3];
  r->w[4] = a->w[4] + P2_4 - b->w[4];
}

#endif
#endif
