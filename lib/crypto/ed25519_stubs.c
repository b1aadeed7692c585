/* Edwards point formulas and the scalar-multiplication chain over
   Ed25519's OCaml points, in the five-word field of fe25519.h.

   The OCaml layouts read and written here (ed25519.ml):

   - point = { x; y; z; t }: extended coordinates, four limb arrays;
   - precomp = { yplusx; yminusx; xy2d }: an affine table entry;
   - stream = { off; top; row } with row = Pre of precomp array
     (tag 0, a table row) | Ext of point (tag 1, a point whose odd
     multiples each chain call builds here).

   The formulas are the OCaml ones (RFC 8032's complete extended
   formulas for a = -1, mixed addition off affine entries, and the
   doubling that needs no T), so both kernels compute the same
   projective coordinates; only the weak representatives of the field
   elements may differ. A point is loaded once per call and stored
   once, and the chain keeps its accumulator in words from the first
   doubling to the last. Nothing here allocates on the OCaml heap:
   the chain's stream descriptors and odd multiples live on the C
   stack, or, for a chain with more streams than that holds, in one
   malloc'd block freed before the call returns. The constant 2d comes
   from the caller, so no curve constant is transcribed.

   Like the field kernel, this needs [unsigned __int128]; without it
   the OCaml side never calls in. */

#include <stddef.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include "fe25519.h"

#if defined(FE25519_WORDS)

typedef struct {
  fe x, y, z, t;
} ge; /* extended (X : Y : Z : T), T = XY/Z */

typedef struct {
  fe ypx, ymx, z2, t2d;
} ge_cached; /* Y + X, Y - X, 2Z, 2dT: an addend ready for [ge_add] */

static inline void ge_load(ge *r, value p)
{
  fe_load(&r->x, Field(p, 0));
  fe_load(&r->y, Field(p, 1));
  fe_load(&r->z, Field(p, 2));
  fe_load(&r->t, Field(p, 3));
}

static inline void ge_store(value dst, const ge *p, int with_t)
{
  fe_store(Field(dst, 0), &p->x);
  fe_store(Field(dst, 1), &p->y);
  fe_store(Field(dst, 2), &p->z);
  if (with_t) fe_store(Field(dst, 3), &p->t);
}

static inline void ge_cache(ge_cached *r, const ge *p, const fe *two_d)
{
  fe_add(&r->ypx, &p->y, &p->x);
  fe_sub(&r->ymx, &p->y, &p->x);
  fe_add(&r->z2, &p->z, &p->z);
  fe_mul(&r->t2d, &p->t, two_d);
}

/* r := 2p without T, which is E * H: both are left in [e] and [h] for
   the caller to multiply only when an addition or the end of a chain
   needs T. Never reads p's T; [r] may alias [p]. */
static inline void ge_double(ge *r, const ge *p, fe *e, fe *h)
{
  fe a, b, c, s, f, g;
  fe_sqr(&a, &p->x);
  fe_sqr(&b, &p->y);
  fe_sqr(&c, &p->z);
  fe_add(&c, &c, &c);         /* C = 2Z^2 */
  fe_add_loose(&s, &p->x, &p->y);
  fe_sqr(&s, &s);             /* (X + Y)^2 */
  fe_add_loose(h, &a, &b);    /* H = A + B */
  fe_sub_loose(e, h, &s);     /* E = H - (X + Y)^2 */
  fe_sub_loose(&g, &a, &b);   /* G = A - B */
  fe_add_loose(&f, &c, &g);   /* F = C + G */
  fe_mul(&r->x, e, &f);
  fe_mul(&r->y, &g, h);
  fe_mul(&r->z, &f, &g);
}

/* The addition tail: E = B - A, H = B + A, F = D - C, G = D + C;
   negating the addend negates C, which swaps F and G. */
static inline void ge_finish(ge *r, const fe *a, const fe *b, const fe *c, const fe *d, int neg)
{
  fe e, h, f, g;
  fe_sub_loose(&e, b, a);
  fe_add_loose(&h, b, a);
  if (neg) {
    fe_add_loose(&f, d, c);
    fe_sub_loose(&g, d, c);
  } else {
    fe_sub_loose(&f, d, c);
    fe_add_loose(&g, d, c);
  }
  fe_mul(&r->x, &e, &f);
  fe_mul(&r->y, &g, &h);
  fe_mul(&r->t, &e, &h);
  fe_mul(&r->z, &f, &g);
}

/* r := p + q, or p - q with [neg]: negating q swaps Y + X and Y - X. */
static inline void ge_add(ge *r, const ge *p, const ge_cached *q, int neg)
{
  fe a, b, c, d;
  fe_sub_loose(&a, &p->y, &p->x);
  fe_mul(&a, &a, neg ? &q->ypx : &q->ymx);
  fe_add_loose(&b, &p->y, &p->x);
  fe_mul(&b, &b, neg ? &q->ymx : &q->ypx);
  fe_mul(&c, &p->t, &q->t2d);
  fe_mul(&d, &p->z, &q->z2);
  ge_finish(r, &a, &b, &c, &d, neg);
}

/* r := p + q, or p - q with [neg], for an affine OCaml entry q: the
   addition with Z2 = 1 folded in, 7 multiplications instead of 8. */
static inline void ge_madd(ge *r, const ge *p, value q, int neg)
{
  fe qp, qm, a, b, c, d;
  fe_load(&qp, Field(q, 0));
  fe_load(&qm, Field(q, 1));
  fe_load(&c, Field(q, 2));
  fe_sub_loose(&a, &p->y, &p->x);
  fe_mul(&a, &a, neg ? &qp : &qm);
  fe_add_loose(&b, &p->y, &p->x);
  fe_mul(&b, &b, neg ? &qm : &qp);
  fe_mul(&c, &c, &p->t);
  fe_add_loose(&d, &p->z, &p->z);
  ge_finish(r, &a, &b, &c, &d, neg);
}

/* One point formula per call, on OCaml points; each reads its operands
   completely before it stores [r], so [r] may alias an operand. */

/* r := 2^n p, n >= 1: T only after the last doubling. */
value algorand_ed25519_double_n(value r, value p, value n)
{
  ge x;
  fe e, h;
  ge_load(&x, p);
  for (intnat i = Long_val(n); i > 0; i--) ge_double(&x, &x, &e, &h);
  fe_mul(&x.t, &e, &h);
  ge_store(r, &x, 1);
  return Val_unit;
}

value algorand_ed25519_add(value r, value p, value q, value neg, value two_d)
{
  ge x, y;
  ge_cached c;
  fe d2;
  fe_load(&d2, two_d);
  ge_load(&x, p);
  ge_load(&y, q);
  ge_cache(&c, &y, &d2);
  ge_add(&x, &x, &c, Bool_val(neg));
  ge_store(r, &x, 1);
  return Val_unit;
}

value algorand_ed25519_madd(value r, value p, value q, value neg)
{
  ge x;
  ge_load(&x, p);
  ge_madd(&x, &x, q, Bool_val(neg));
  ge_store(r, &x, 1);
  return Val_unit;
}

/* [P; 3P; ...; 15P], ready to add: P, 2P, then 2P added seven times. */
#define ODD_MULTIPLES 8

static void odd_multiples(ge_cached *out, value p, const fe *two_d)
{
  ge x, p2;
  ge_cached c2;
  fe e, h;
  ge_load(&x, p);
  ge_double(&p2, &x, &e, &h);
  fe_mul(&p2.t, &e, &h);
  ge_cache(&c2, &p2, two_d);
  ge_cache(&out[0], &x, two_d);
  for (int i = 1; i < ODD_MULTIPLES; i++) {
    ge_add(&x, &x, &c2, 0);
    ge_cache(&out[i], &x, two_d);
  }
}

/* One digit stream: its digits digit[0..top], and the odd multiples
   they index, built here ([odd]) or an OCaml table row ([row]). */
struct stream {
  const value *digit;
  intnat top;
  const ge_cached *odd;
  value row;
};

/* Room on the C stack for a chain's descriptors and odd multiples:
   twelve streams with odd multiples. A verification or a proof needs
   at most six streams, two with odd multiples; a batch may need more,
   and gets them from malloc. */
#define CHAIN_STACK_BYTES 16384

/* acc := the sum of the streams (an OCaml [stream list]) over the
   digits in [buf], on one doubling chain as long as the longest
   stream. False, with nothing written, if the memory for a chain too
   long for the stack cannot be had. */
value algorand_ed25519_chain(value acc, value buf, value streams, value two_d)
{
  size_t n = 0, n_ext = 0;
  for (value l = streams; l != Val_emptylist; l = Field(l, 1)) {
    n++;
    if (Tag_val(Field(Field(l, 0), 2)) == 1) n_ext++;
  }
  _Alignas(ge_cached) unsigned char stack[CHAIN_STACK_BYTES];
  size_t need = n_ext * ODD_MULTIPLES * sizeof(ge_cached) + n * sizeof(struct stream);
  void *mem = need <= sizeof stack ? (void *)stack : malloc(need);
  if (mem == NULL) return Val_false;
  ge_cached *odd = mem;
  struct stream *ds = (struct stream *)(odd + n_ext * ODD_MULTIPLES);
  fe d2;
  fe_load(&d2, two_d);
  intnat top = -1;
  size_t k = 0;
  for (value l = streams; l != Val_emptylist; l = Field(l, 1), k++) {
    value s = Field(l, 0), row = Field(s, 2);
    ds[k].digit = (const value *)Op_val(buf) + Long_val(Field(s, 0));
    ds[k].top = Long_val(Field(s, 1));
    if (ds[k].top > top) top = ds[k].top;
    if (Tag_val(row) == 1) {
      odd_multiples(odd, Field(row, 0), &d2);
      ds[k].odd = odd;
      ds[k].row = Val_unit;
      odd += ODD_MULTIPLES;
    } else {
      ds[k].odd = NULL;
      ds[k].row = Field(row, 0);
    }
  }
  ge r = { .y = { { 1 } }, .z = { { 1 } } };
  fe e, h;
  for (intnat i = top; i >= 0; i--) {
    ge_double(&r, &r, &e, &h);
    int has_t = 0;
    for (k = 0; k < n; k++) {
      if (i > ds[k].top) continue;
      intnat d = Long_val(ds[k].digit[i]);
      if (d == 0) continue;
      if (!has_t) {
        fe_mul(&r.t, &e, &h);
        has_t = 1;
      }
      int neg = d < 0;
      intnat j = ((neg ? -d : d) - 1) / 2;
      if (ds[k].odd != NULL)
        ge_add(&r, &r, &ds[k].odd[j], neg);
      else
        ge_madd(&r, &r, Field(ds[k].row, j), neg);
    }
    if (i == 0 && !has_t) fe_mul(&r.t, &e, &h);
  }
  if (mem != stack) free(mem);
  ge_store(acc, &r, 1);
  return Val_true;
}

#else

/* Unreachable: the OCaml side calls these only where the field
   kernel is C. */
value algorand_ed25519_double_n(value r, value p, value n)
{
  (void)r;
  (void)p;
  (void)n;
  abort();
}

value algorand_ed25519_add(value r, value p, value q, value neg, value two_d)
{
  (void)r;
  (void)p;
  (void)q;
  (void)neg;
  (void)two_d;
  abort();
}

value algorand_ed25519_madd(value r, value p, value q, value neg)
{
  (void)r;
  (void)p;
  (void)q;
  (void)neg;
  abort();
}

value algorand_ed25519_chain(value acc, value buf, value streams, value two_d)
{
  (void)acc;
  (void)buf;
  (void)streams;
  (void)two_d;
  abort();
}

#endif
