/* GF(2^255 - 19) multiply, square and n-fold square over Fe25519's
   limb arrays: each call loads its operands as five 52-bit words,
   computes in them (fe25519.h, where the bounds are) and stores ten
   limbs in the weak form fe25519.ml keeps. Every operand is loaded
   before the first store, so the destination may alias either
   operand.

   The kernel needs [unsigned __int128]. Where the compiler lacks it
   the file still builds and [algorand_fe25519_available] answers
   false, so the OCaml side keeps its own kernel. */

#include <stdlib.h>
#include <caml/mlvalues.h>
#include "fe25519.h"

#if defined(FE25519_WORDS)

/* dst := a * b. */
value algorand_fe25519_mul(value dst, value a, value b)
{
  fe x, y;
  fe_load(&x, a);
  fe_load(&y, b);
  fe_mul(&x, &x, &y);
  fe_store(dst, &x);
  return Val_unit;
}

/* dst := a^2. */
value algorand_fe25519_sqr(value dst, value a)
{
  fe x;
  fe_load(&x, a);
  fe_sqr(&x, &x);
  fe_store(dst, &x);
  return Val_unit;
}

/* dst := a^(2^n), n >= 1: the words stay loaded between squarings. */
value algorand_fe25519_sqr_n(value dst, value a, value n)
{
  fe x;
  fe_load(&x, a);
  for (intnat i = Long_val(n); i > 0; i--) fe_sqr(&x, &x);
  fe_store(dst, &x);
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

value algorand_fe25519_sqr_n(value dst, value a, value n)
{
  (void)dst;
  (void)a;
  (void)n;
  abort();
}

#endif
