/* Fused pull-stream, link-wise bounce-back and BGK collide over one region
 * of a FieldBuffer: the body of kernels.stream_collide_region.
 *
 * An arena is read through the element strides (sp, sx, sa, sb) of its
 * (Q, alloc_LX, A, B) view, with y = a * nb + b, so one code path serves
 * every layout.  The region is walked in blocks of whole region columns,
 * about block_sites sites each.  Each population of a block is staged into
 * one contiguous buffer, pulled from prv and bounced back from prv at the
 * walls; the block is relaxed there and stored to nxt.
 *
 * Bit-identity with the numpy reference kernels rests on performing each
 * site's IEEE operations in their order: the moments accumulate in
 * population order, and every product and sum below is written as the
 * reference writes it.  Build with -ffp-contract=off and never with
 * -ffast-math, so that the compiler neither fuses a multiply-add nor
 * reassociates; vectorizing across sites then changes no value.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* Element strides of an arena's view, its row block length and row count. */
struct view {
    i64 sp, sx, sa, sb, nb, ly;
};

/* buf[0, n) <-> rows y, y + 1, ... of one column, wrapping at ly; y is in
 * [0, ly).  store != 0 copies buf into the column, else the column into buf. */
static void move_rows(const struct view *v, double *col, i64 y, i64 n,
                      double *buf, int store)
{
    while (n > 0) {
        i64 a = y / v->nb, b = y % v->nb;
        i64 run = v->nb - b < n ? v->nb - b : n;
        double *c = col + a * v->sa + b * v->sb;
        if (v->sb == 1)
            memcpy(store ? c : buf, store ? buf : c, run * sizeof(double));
        else if (store)
            for (i64 i = 0; i < run; i++)
                c[i * v->sb] = buf[i];
        else
            for (i64 i = 0; i < run; i++)
                buf[i] = c[i * v->sb];
        buf += run;
        n -= run;
        y += run;
        if (y == v->ly)
            y = 0;
    }
}

/* buf <- rows [y0, y1) of population p at column x after the pull from
 * x - cx, y - cy.  With walls, a row whose source lies outside [0, ly)
 * takes the opposite population at its own site instead. */
static void pull(const struct view *v, const double *prv, i64 p, i64 opp,
                 i64 x, i64 cx, i64 cy, i64 y0, i64 y1, int walls,
                 double *buf)
{
    double *src = (double *)prv + p * v->sp + (x - cx) * v->sx;
    double *own = (double *)prv + opp * v->sp + x * v->sx;
    if (!walls) {
        i64 ys = (y0 - cy) % v->ly;
        move_rows(v, src, ys < 0 ? ys + v->ly : ys, y1 - y0, buf, 0);
        return;
    }
    /* rows [y0, m0) and [m1, y1) bounce back, rows [m0, m1) pull */
    i64 m0 = y0, m1 = y1;
    if (cy > 0)
        m0 = cy < y0 ? y0 : cy < y1 ? cy : y1;
    if (cy < 0)
        m1 = v->ly + cy > y1 ? y1 : v->ly + cy > y0 ? v->ly + cy : y0;
    move_rows(v, own, y0, m0 - y0, buf, 0);
    move_rows(v, src, m0 - cy, m1 - m0, buf + (m0 - y0), 0);
    move_rows(v, own, m1, y1 - m1, buf + (m1 - y0), 0);
}

/* Store the staged block of nx whole columns from xb to nxt, walking nxt
 * in memory order: the view indices p, a and b nested by decreasing
 * stride, so that each cache line of nxt is written in one visit rather
 * than once per population. */
static void store_columns(const struct view *v, double *nxt, i64 q, i64 xb,
                          i64 nx, const double *f)
{
    const i64 n = nx * v->ly;
    const i64 ext[3] = {q, v->ly / v->nb, v->nb};
    const i64 sd[3] = {v->sp, v->sa, v->sb}, sf[3] = {n, v->nb, 1};
    int o[3] = {0, 1, 2};
    for (int i = 0; i < 3; i++)
        for (int j = i + 1; j < 3; j++)
            if (sd[o[j]] > sd[o[i]]) {
                int t = o[i];
                o[i] = o[j];
                o[j] = t;
            }
    for (i64 x = 0; x < nx; x++) {
        double *dx = nxt + (xb + x) * v->sx;
        const double *fx = f + x * v->ly;
        for (i64 i0 = 0; i0 < ext[o[0]]; i0++)
            for (i64 i1 = 0; i1 < ext[o[1]]; i1++) {
                double *d = dx + i0 * sd[o[0]] + i1 * sd[o[1]];
                const double *s = fx + i0 * sf[o[0]] + i1 * sf[o[1]];
                const i64 ds = sd[o[2]], fs = sf[o[2]];
                for (i64 i = 0; i < ext[o[2]]; i++)
                    d[i * ds] = s[i * fs];
            }
    }
}

/* rho, jx, jy, then a = rho - |j|^2 / rho * c_a and g = c_g / rho, of the
 * n staged sites; as kernels._density_momentum and kernels._relax. */
static void moments(i64 q, const i64 *cx, const i64 *cy, const double *f,
                    i64 n, double c_a, double c_g, double *rho, double *jx,
                    double *jy, double *a, double *g)
{
    for (i64 i = 0; i < n; i++)
        rho[i] = jx[i] = jy[i] = 0.0;
    for (i64 p = 0; p < q; p++) {
        const double *fp = f + p * n;
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
static void relax(i64 npairs, const i64 *pair_p, const i64 *pair_q,
                  const i64 *cx, const i64 *cy, const double *pair_w,
                  const double *pair_wcs, double om1, double *f, i64 n,
                  const double *jx, const double *jy, const double *a,
                  const double *g)
{
    for (i64 k = 0; k < npairs; k++) {
        double *fp = f + pair_p[k] * n, *fq = f + pair_q[k] * n;
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
 * 0, or -1 if the block buffers cannot be allocated. */
int lbhx_stream_collide(const double *prv, double *nxt,
                        i64 sp, i64 sx, i64 sa, i64 sb, i64 nb, i64 ly,
                        i64 x0, i64 x1, i64 y0, i64 y1,
                        int walls, i64 block_sites,
                        i64 q, const i64 *cx, const i64 *cy,
                        const i64 *opposite, i64 npairs, const i64 *pair_p,
                        const i64 *pair_q, const double *pair_w,
                        const double *pair_wcs,
                        double c_a, double c_g, double om1)
{
    const struct view v = {sp, sx, sa, sb, nb, ly};
    /* blocks of whole region columns */
    i64 rows = y1 - y0;
    i64 width = block_sites / rows > 1 ? block_sites / rows : 1;
    if (width > x1 - x0)
        width = x1 - x0;
    i64 cap = width * rows;
    double *f = malloc((q + 5) * cap * sizeof(double));
    if (!f)
        return -1;
    double *rho = f + q * cap, *jx = rho + cap, *jy = jx + cap,
           *a = jy + cap, *g = a + cap;

    for (i64 xb = x0; xb < x1; xb += width) {
        i64 nx = x1 - xb < width ? x1 - xb : width, n = nx * rows;
        for (i64 p = 0; p < q; p++)
            for (i64 x = 0; x < nx; x++)
                pull(&v, prv, p, opposite[p], xb + x, cx[p], cy[p], y0, y1,
                     walls, f + p * n + x * rows);
        moments(q, cx, cy, f, n, c_a, c_g, rho, jx, jy, a, g);
        relax(npairs, pair_p, pair_q, cx, cy, pair_w, pair_wcs, om1, f, n,
              jx, jy, a, g);
        if (rows == ly)
            store_columns(&v, nxt, q, xb, nx, f);
        else /* part of each column: one population's rows at a time */
            for (i64 p = 0; p < q; p++)
                for (i64 x = 0; x < nx; x++)
                    move_rows(&v, nxt + p * sp + (xb + x) * sx, y0, rows,
                              f + p * n + x * rows, 1);
    }
    free(f);
    return 0;
}
