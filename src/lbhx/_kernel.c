/* Fused pull-stream, link-wise bounce-back and BGK collide over one region
 * of a FieldBuffer: the body of kernels.stream_collide_region.
 *
 * An arena is read through the element strides (sp, sx, sa, sb) of its
 * (Q, alloc_LX, A, B) view, with y = a * nb + b, so one code path serves
 * every layout.  The region is walked in blocks of whole region columns,
 * about block_sites sites each.  A block is staged in one buffer,
 * populations outermost (f[p * ld + site]); within a column the region's
 * rows are at most three (a, b) rectangles, and each rectangle holds its
 * sites in the arena's own order: the row axes a and b nested by
 * decreasing stride.  That puts the VL lanes innermost for the interleaved
 * clustered layouts and keeps y order for the others, so both the pull
 * from prv and the store to nxt copy runs that are contiguous on both
 * sides wherever the arena has them.  The block is relaxed in the buffer
 * between the two.
 *
 * Bit-identity with the numpy reference kernels rests on performing each
 * site's IEEE operations in their order: the moments accumulate in
 * population order, and every product and sum below is written as the
 * reference writes it.  The collide is site-local, so the order of sites
 * in the buffer changes no value.  Build with -ffp-contract=off and never
 * with -ffast-math, so that the compiler neither fuses a multiply-add nor
 * reassociates; vectorizing across sites then changes no value.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* The block-level helpers stay out of line: inlined into
 * lbhx_stream_collide, their loops ran short of registers and reloaded
 * operands from the stack, which made the AoS pull and store and the
 * moments measurably slower. */
#define BLOCK_STEP __attribute__((noinline)) static

/* Sites per collide strip: a D2Q9 strip's populations and moments (28 kB)
 * stay in L1, where a whole 2048-row column (230 kB) did not. */
#define STRIP 256

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
 * site instead. */
BLOCK_STEP void pull(const struct view *v, const double *prv, i64 p,
                     i64 opp, i64 xb, i64 nx, i64 cx, i64 cy, int walls,
                     const struct rect *r, double *col, i64 rows)
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

/* Store the staged block of nx columns from xb to nxt, rectangle by
 * rectangle, walking nxt in memory order: the view indices p, a and b
 * nested by decreasing stride, so that each cache line of nxt is written
 * in one visit rather than once per population. */
BLOCK_STEP void store(const struct view *v, double *nxt, i64 q, i64 xb,
                      i64 nx, i64 rows, const struct rect *r, int nr,
                      const double *f, i64 ld)
{
    const i64 sd[3] = {v->sp, v->sa, v->sb};
    int o[3] = {0, 1, 2};
    for (int i = 0; i < 3; i++)
        for (int j = i + 1; j < 3; j++)
            if (sd[o[j]] > sd[o[i]]) {
                int t = o[i];
                o[i] = o[j];
                o[j] = t;
            }
    for (i64 x = 0; x < nx; x++)
        for (int k = 0; k < nr; k++) {
            const i64 ext[3] = {q, r[k].a1 - r[k].a0, r[k].b1 - r[k].b0};
            const i64 sf[3] = {ld, r[k].fa, r[k].fb};
            double *d = nxt + (xb + x) * v->sx + r[k].a0 * v->sa
                        + r[k].b0 * v->sb;
            const double *s = f + x * rows + r[k].off;
            for (i64 i = 0; i < ext[o[0]]; i++)
                copy2(d + i * sd[o[0]], sd[o[1]], sd[o[2]],
                      s + i * sf[o[0]], sf[o[1]], sf[o[2]], ext[o[1]],
                      ext[o[2]]);
        }
}

/* rho, jx, jy, then a = rho - |j|^2 / rho * c_a and g = c_g / rho, of the
 * n staged sites, population p at f + p * ld; as kernels._density_momentum
 * and kernels._relax. */
BLOCK_STEP void moments(i64 q, const i64 *cx, const i64 *cy,
                        const double *f, i64 ld, i64 n, double c_a,
                        double c_g, double *rho, double *jx, double *jy,
                        double *a, double *g)
{
    for (i64 i = 0; i < n; i++)
        rho[i] = jx[i] = jy[i] = 0.0;
    for (i64 p = 0; p < q; p++) {
        const double *fp = f + p * ld;
        const double kx = (double)cx[p], ky = (double)cy[p];
        /* j += k f equals j += f for k = 1 and j -= f for k = -1 */
        if (cx[p] && cy[p])
            for (i64 i = 0; i < n; i++) {
                rho[i] += fp[i];
                jx[i] += kx * fp[i];
                jy[i] += ky * fp[i];
            }
        else if (cx[p])
            for (i64 i = 0; i < n; i++) {
                rho[i] += fp[i];
                jx[i] += kx * fp[i];
            }
        else if (cy[p])
            for (i64 i = 0; i < n; i++) {
                rho[i] += fp[i];
                jy[i] += ky * fp[i];
            }
        else
            for (i64 i = 0; i < n; i++)
                rho[i] += fp[i];
    }
    for (i64 i = 0; i < n; i++) {
        double inv_rho = 1.0 / rho[i];
        a[i] = rho[i] - (jx[i] * jx[i] + jy[i] * jy[i]) * inv_rho * c_a;
        g[i] = inv_rho * c_g;
    }
}

/* f <- (1 - omega) f + omega f_eq in place, one opposite pair (p, q) at a
 * time; a rest population has q = p.  w is w_p omega, wcs is w / cs2. */
BLOCK_STEP void relax(i64 npairs, const i64 *pair_p, const i64 *pair_q,
                      const i64 *cx, const i64 *cy, const double *pair_w,
                      const double *pair_wcs, double om1, double *f, i64 ld,
                      i64 n, const double *jx, const double *jy,
                      const double *a, const double *g)
{
    for (i64 k = 0; k < npairs; k++) {
        double *fp = f + pair_p[k] * ld, *fq = f + pair_q[k] * ld;
        const double kx = (double)cx[pair_p[k]], ky = (double)cy[pair_p[k]];
        const double w = pair_w[k], wcs = pair_wcs[k];
        const int rest = pair_p[k] == pair_q[k];
        for (i64 i = 0; i < n; i++) {
            double t = kx * jx[i] + ky * jy[i];
            double even = (t * t * g[i] + a[i]) * w;
            t = t * wcs;
            fp[i] = fp[i] * om1 + (even + t);
            if (!rest)
                fq[i] = fq[i] * om1 + (even - t);
        }
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
    struct rect r[3];
    const int nr = row_rects(&v, y0, y1, r);
    /* blocks of whole region columns */
    i64 rows = y1 - y0;
    i64 width = block_sites / rows > 1 ? block_sites / rows : 1;
    if (width > x1 - x0)
        width = x1 - x0;
    /* populations lie a cache line further apart than a block's sites:
     * faster on every layout measured, by up to a tenth for AoS */
    const i64 cap = width * rows, ld = cap + 8;
    const i64 size = (q * ld + 5 * cap) * (i64)sizeof(double);
    double *f = malloc(size);
    if (!f)
        return size;
    double *rho = f + q * ld, *jx = rho + cap, *jy = jx + cap,
           *a = jy + cap, *g = a + cap;

    for (i64 xb = x0; xb < x1; xb += width) {
        i64 nx = x1 - xb < width ? x1 - xb : width, n = nx * rows;
        for (i64 p = 0; p < q; p++)
            for (int k = 0; k < nr; k++)
                pull(&v, prv, p, opposite[p], xb, nx, cx[p], cy[p], walls,
                     &r[k], f + p * ld, rows);
        /* the collide is site-local: relax L1-sized strips of the block */
        for (i64 i0 = 0; i0 < n; i0 += STRIP) {
            i64 m = n - i0 < STRIP ? n - i0 : STRIP;
            moments(q, cx, cy, f + i0, ld, m, c_a, c_g, rho, jx, jy, a, g);
            relax(npairs, pair_p, pair_q, cx, cy, pair_w, pair_wcs, om1,
                  f + i0, ld, m, jx, jy, a, g);
        }
        store(&v, nxt, q, xb, nx, rows, r, nr, f, ld);
    }
    free(f);
    return 0;
}
