/* Fused pull-stream, link-wise bounce-back and BGK collide over one region
 * of a FieldBuffer: the body of kernels.stream_collide_region.
 *
 * An arena is read through the element strides (sp, sx, sa, sb) of its
 * (Q, alloc_LX, A, B) view, with y = a * nb + b, so one code path serves
 * every layout.  The region is walked in blocks of whole region columns,
 * about block_sites sites each.  A block is pulled from prv into one
 * buffer, populations outermost (f[p * ld + site]); within a column the
 * region's rows are at most three (a, b) rectangles, and each rectangle
 * holds its sites in the arena's own order: the row axes a and b nested by
 * decreasing stride.  That puts the VL lanes innermost for the interleaved
 * clustered layouts and keeps y order for the others, so the pull copies
 * runs that are contiguous on both sides wherever the arena has them.  The
 * collide takes the staged sites 8 at a time, keeps their moments in
 * registers and writes each relaxed population straight to nxt: one vector
 * store where the 8 destinations are consecutive, two where each half is
 * (a VL4 cluster), else one store per site.  Each arena starts on a 64-B
 * line (layouts.FieldBuffer), so a whole-vector SoA/CSoA store at a
 * multiple of 8 doubles fills one line and a CAoSoA VL4 half fills one
 * half-line: no store splits a line.
 *
 * Bit-identity with the numpy reference kernels rests on performing each
 * site's IEEE operations in their order: the moments accumulate in
 * population order, and every product and sum below is written as the
 * reference writes it.  The collide is site-local, so the order of sites
 * in a vector changes no value.  Build with -ffp-contract=off and never
 * with -ffast-math, so that the compiler neither fuses a multiply-add nor
 * reassociates; vectorizing across sites then changes no value.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* 8 and 4 staged sites; aligned(8) lets one load or store at any double. */
typedef double v8d __attribute__((vector_size(64), aligned(8)));
typedef double v4d __attribute__((vector_size(32), aligned(8)));

/* Element strides of an arena's view and its row block count and length. */
struct view {
    i64 sp, sx, sa, sb, na, nb;
};

/* Rows [a0, a1) x [b0, b1) of a column's view; site (a, b) is staged at
 * off + (a - a0) * fa + (b - b0) * fb of the column. */
struct rect {
    i64 a0, a1, b0, b1, off, fa, fb;
};

/* d[j * dj + k * dk] = s[j * sj + k * sk] for j < nj and k < nk.  A
 * contiguous run of 4 (a VL4 cluster) is a fixed-size copy.  Always
 * inlined, so that a caller's loop around it can hoist the tests on the
 * strides. */
__attribute__((always_inline)) static inline void copy2(
    double *d, i64 dj, i64 dk, const double *s, i64 sj, i64 sk, i64 nj,
    i64 nk)
{
    for (i64 j = 0; j < nj; j++, d += dj, s += sj)
        if (dk != 1)
            for (i64 k = 0; k < nk; k++)
                d[k * dk] = s[k * sk];
        else if (sk != 1)
            for (i64 k = 0; k < nk; k++)
                d[k] = s[k * sk];
        else if (nk == 4)
            memcpy(d, s, 4 * sizeof(double));
        else
            for (i64 k = 0; k < nk; k++)
                d[k] = s[k];
}

/* The staged sites of rows [a, a + na) x [b, b + nb) of rect r in nx
 * columns of `rows` sites from col <- the same rows of nx view columns
 * from s, along the axis of unit stride in r. */
static void stage(const struct view *v, const struct rect *r, double *col,
                  i64 rows, i64 nx, i64 a, i64 b, const double *s, i64 na,
                  i64 nb)
{
    double *d = col + r->off + (a - r->a0) * r->fa + (b - r->b0) * r->fb;
    for (i64 x = 0; x < nx; x++, d += rows, s += v->sx)
        if (r->fa == 1)
            copy2(d, r->fb, 1, s, v->sb, v->sa, nb, na);
        else
            copy2(d, r->fa, r->fb, s, v->sa, v->sb, na, nb);
}

/* Region rows [y0, y1) as at most three rectangles, as kernels._row_blocks
 * makes them: a head row, whole middle rows, a tail row; returns how many.
 * Each is staged after the one before, its axes nested by decreasing
 * stride in the arena. */
static int row_rects(const struct view *v, i64 y0, i64 y1, struct rect *r)
{
    i64 a0 = y0 / v->nb, b0 = y0 % v->nb, a1 = y1 / v->nb, b1 = y1 % v->nb;
    int k = 0;
    if (a0 == a1) {
        r[k++] = (struct rect){a0, a0 + 1, b0, b1, 0, 0, 0};
    } else {
        if (b0) {
            r[k++] = (struct rect){a0, a0 + 1, b0, v->nb, 0, 0, 0};
            a0++;
        }
        if (a1 > a0)
            r[k++] = (struct rect){a0, a1, 0, v->nb, 0, 0, 0};
        if (b1)
            r[k++] = (struct rect){a1, a1 + 1, 0, b1, 0, 0, 0};
    }
    i64 off = 0;
    for (int i = 0; i < k; i++) {
        i64 na = r[i].a1 - r[i].a0, nb = r[i].b1 - r[i].b0;
        r[i].off = off;
        r[i].fa = v->sa > v->sb ? nb : 1;
        r[i].fb = v->sa > v->sb ? 1 : na;
        off += na * nb;
    }
    return k;
}

/* Rect r of nx staged columns of `rows` sites from col <- population p
 * at columns xb, xb + 1, ... after the pull from x - cx, y - cy.  With
 * cy = qa * nb + rb (0 <= rb < nb), row (a, b) pulls from row a - qa at
 * b - rb where b >= rb, and from row a - qa - 1 at b - rb + nb where
 * b < rb.  A source row outside [0, na) lies outside [0, ly): it wraps when
 * periodic; with walls the site takes the opposite population at its own
 * site instead.  Out of line: inlined into lbhx_stream_collide, its loops
 * ran short of registers and reloaded operands from the stack, which made
 * the AoS pull measurably slower. */
__attribute__((noinline)) static void pull(
    const struct view *v, const double *prv, i64 p, i64 opp, i64 xb,
    i64 nx, i64 cx, i64 cy, int walls, const struct rect *r, double *col,
    i64 rows)
{
    const double *src = prv + p * v->sp + (xb - cx) * v->sx;
    const double *own = prv + opp * v->sp + xb * v->sx;
    i64 qa = cy / v->nb, rb = cy % v->nb;
    if (rb < 0) {
        rb += v->nb;
        qa--;
    }
    const i64 part[2][4] = {  /* da, db, b_lo, b_hi */
        {qa, -rb, r->b0 > rb ? r->b0 : rb, r->b1},
        {qa + 1, v->nb - rb, r->b0, r->b1 < rb ? r->b1 : rb}};
    for (int h = 0; h < 2; h++) {
        const i64 da = part[h][0], db = part[h][1];
        const i64 b = part[h][2], nb = part[h][3] - b;
        for (i64 a = r->a0, n; nb > 0 && a < r->a1; a += n) {
            i64 s = a - da;
            if (walls && (s < 0 || s >= v->na)) {
                n = s < 0 && -s < r->a1 - a ? -s : r->a1 - a;
                stage(v, r, col, rows, nx, a, b,
                      own + a * v->sa + b * v->sb, n, nb);
                continue;
            }
            if (s < 0 || s >= v->na)
                s = (s % v->na + v->na) % v->na;
            n = v->na - s < r->a1 - a ? v->na - s : r->a1 - a;
            stage(v, r, col, rows, nx, a, b,
                  src + s * v->sa + (b + db) * v->sb, n, nb);
        }
    }
}

/* The model's collide coefficients, as kernels._coefficients makes them:
 * per population cx, cy; per opposite pair (p, q) of kernels._relax, p, q,
 * w = w_p omega and w / cs2; then 0.5/cs2, 0.5/cs2^2 and 1 - omega. */
struct model {
    i64 q, npairs;
    const i64 *cx, *cy, *pair_p, *pair_q;
    const double *pair_w, *pair_wcs;
    double c_a, c_g, om1;
};

/* 8 when the 8 destinations o[0..8) are consecutive and in order, 4 when
 * each half of them is, else 1.  Every offset is checked: the staged order
 * of an interleaved layout's head and middle rectangles need not follow
 * nxt's memory order. */
static inline int run_length(const i64 *o)
{
    int lo = 1, hi = 1;
    for (int k = 1; k < 4; k++) {
        lo &= o[k] == o[0] + k;
        hi &= o[4 + k] == o[4] + k;
    }
    return !(lo && hi) ? 1 : o[4] == o[0] + 4 ? 8 : 4;
}

/* The first m sites of v to d[o[k]]: one store of a run of 8, two of runs
 * of 4, else one per site. */
static inline void put(double *d, const i64 *o, int run, int m, v8d v)
{
    if (run == 8) {
        *(v8d *)(d + o[0]) = v;
    } else if (run == 4) {
        *(v4d *)(d + o[0]) = (v4d){v[0], v[1], v[2], v[3]};
        *(v4d *)(d + o[4]) = (v4d){v[4], v[5], v[6], v[7]};
    } else {
        for (int k = 0; k < m; k++)
            d[o[k]] = v[k];
    }
}

/* Relax the 8 staged sites from f, population p at f + p * ld, and write
 * the first m of them to nxt, population p of site k at d + p * sp + o[k]:
 * rho, jx and jy, then a = rho - |j|^2 / rho * c_a and g = c_g / rho, as
 * kernels._density_momentum and kernels._relax form them; then per opposite
 * pair f <- f (1 - omega) + (even +- odd).  Always inlined, so that the
 * full vectors (m = 8) take no test on m. */
__attribute__((always_inline)) static inline void collide(
    const struct model *c, const double *f, i64 ld, double *d, i64 sp,
    const i64 *o, int m)
{
    v8d rho = {0}, jx = {0}, jy = {0};
    for (i64 p = 0; p < c->q; p++) {
        const v8d fp = *(const v8d *)(f + p * ld);
        rho += fp;
        /* j += k f equals j += f for k = 1 and j -= f for k = -1 */
        if (c->cx[p])
            jx += (double)c->cx[p] * fp;
        if (c->cy[p])
            jy += (double)c->cy[p] * fp;
    }
    const v8d inv_rho = 1.0 / rho;
    const v8d a = rho - (jx * jx + jy * jy) * inv_rho * c->c_a;
    const v8d g = inv_rho * c->c_g;
    const int run = m == 8 ? run_length(o) : 1;
    for (i64 k = 0; k < c->npairs; k++) {
        const i64 p = c->pair_p[k], q = c->pair_q[k];
        v8d t = (double)c->cx[p] * jx + (double)c->cy[p] * jy;
        const v8d even = (t * t * g + a) * c->pair_w[k];
        t = t * c->pair_wcs[k];
        put(d + p * sp, o, run, m,
            *(const v8d *)(f + p * ld) * c->om1 + (even + t));
        if (q != p)
            put(d + q * sp, o, run, m,
                *(const v8d *)(f + q * ld) * c->om1 + (even - t));
    }
}

/* One fused step of region [x0, x1) x [y0, y1) from prv into nxt; returns
 * 0, or the byte count of the block buffer if it cannot be allocated. */
i64 lbhx_stream_collide(const double *prv, double *nxt,
                        i64 sp, i64 sx, i64 sa, i64 sb, i64 nb, i64 ly,
                        i64 x0, i64 x1, i64 y0, i64 y1,
                        int walls, i64 block_sites,
                        i64 q, const i64 *cx, const i64 *cy,
                        const i64 *opposite, i64 npairs, const i64 *pair_p,
                        const i64 *pair_q, const double *pair_w,
                        const double *pair_wcs,
                        double c_a, double c_g, double om1)
{
    const struct view v = {sp, sx, sa, sb, ly / nb, nb};
    const struct model mdl = {q, npairs, cx, cy, pair_p, pair_q, pair_w,
                              pair_wcs, c_a, c_g, om1};
    struct rect r[3];
    const int nr = row_rects(&v, y0, y1, r);
    /* blocks of whole region columns */
    i64 rows = y1 - y0;
    i64 width = block_sites / rows > 1 ? block_sites / rows : 1;
    if (width > x1 - x0)
        width = x1 - x0;
    /* populations lie a cache line further apart than a block's sites:
     * faster on every layout measured, by up to a tenth for AoS; a last
     * vector of fewer than 8 sites reads into that gap, zeroed here */
    const i64 cap = width * rows, ld = cap + 8;
    const i64 size = q * ld * (i64)sizeof(double) + cap * (i64)sizeof(i64);
    double *f = calloc(size, 1);
    if (!f)
        return size;
    /* o[i]: where staged site i of every block lies in nxt, from column xb */
    i64 *o = (i64 *)(f + q * ld);
    for (i64 x = 0; x < width; x++)
        for (int k = 0; k < nr; k++)
            for (i64 a = r[k].a0; a < r[k].a1; a++)
                for (i64 b = r[k].b0; b < r[k].b1; b++)
                    o[x * rows + r[k].off + (a - r[k].a0) * r[k].fa
                      + (b - r[k].b0) * r[k].fb] = x * sx + a * sa + b * sb;

    for (i64 xb = x0; xb < x1; xb += width) {
        i64 nx = x1 - xb < width ? x1 - xb : width, n = nx * rows, i = 0;
        for (i64 p = 0; p < q; p++)
            for (int k = 0; k < nr; k++)
                pull(&v, prv, p, opposite[p], xb, nx, cx[p], cy[p], walls,
                     &r[k], f + p * ld, rows);
        for (; i + 8 <= n; i += 8)
            collide(&mdl, f + i, ld, nxt + xb * sx, sp, o + i, 8);
        if (i < n)
            collide(&mdl, f + i, ld, nxt + xb * sx, sp, o + i, (int)(n - i));
    }
    free(f);
    return 0;
}
