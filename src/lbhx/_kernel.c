/* Fused pull-stream, link-wise bounce-back and BGK collide over one region
 * of a FieldBuffer: the body of kernels.stream_collide_region.
 *
 * An arena is read through the element strides (sp, sx, sa, sb) of its
 * (Q, alloc_LX, A, B) view, with y = a * nb + b, so one code path serves
 * every layout.  The region is walked in blocks of whole region columns,
 * about block_sites sites each, and its sites are relaxed 8 at a time with
 * their moments in registers.  Within a column the region's rows are at
 * most three (a, b) rectangles, and each holds its sites in the arena's own
 * order: the row axes a and b nested by decreasing stride, which puts the
 * VL lanes innermost for the interleaved clustered layouts and keeps y
 * order for the others.  The sites of 8 in a row whose pull sources all lie
 * in their own row a, at b - cy, load each population straight from prv:
 * their sources are their destinations less one offset per population, so
 * where the destinations are a run of 8 (SoA, CSoA) or two runs of 4 (a
 * CAoSoA VL4 cluster), so are the sources.  That covers every row but the
 * R rows next to each end of a row a (the wall or y-wrap, and the cluster
 * seams of the interleaved layouts), rounded up to whole vectors.  Those
 * rows, the partial rows of a region that does not start or end on a row
 * a, and all of AoS (run 1) and of consecutive CAoSoA (a seam every VL
 * rows) are staged: pulled from prv into one block buffer, populations
 * outermost (f[p * ld + site]), by runs contiguous on both sides wherever
 * the arena has them; for D2Q37 SoA at 256 rows it holds 16 rows a column,
 * about 21 kB a block.  Either way each relaxed population is written
 * straight to nxt: one vector store where the 8 destinations are
 * consecutive, two where each half is, else one store per site.  Each
 * arena starts on a 64-B line (layouts.FieldBuffer), so a whole-vector
 * SoA/CSoA store at a multiple of 8 doubles fills one line and a CAoSoA VL4
 * half fills one half-line: no store splits a line.
 *
 * Bit-identity with the numpy reference kernels rests on performing each
 * site's IEEE operations in their order: the moments accumulate in
 * population order, and every product and sum below is written as the
 * reference writes it.  The collide is site-local, so the order of sites
 * in a vector changes no value, and a direct load fetches the doubles that
 * the pull would stage.  Build with -ffp-contract=off and never with
 * -ffast-math, so that the compiler neither fuses a multiply-add nor
 * reassociates; vectorizing across sites then changes no value.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* 8 and 4 sites; aligned(8) lets one load or store at any double. */
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

/* Region rows [y0, y1) as at most three rectangles of rows y = a * nb + b:
 * a head row, whole middle rows, a tail row; returns how many. */
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
    return k;
}

/* Rows [a0, a1) x [b0, b1) held from off in a column, the axes nested by
 * decreasing stride in the arena. */
static struct rect rect(const struct view *v, i64 a0, i64 a1, i64 b0, i64 b1,
                        i64 off)
{
    const int amajor = v->sa > v->sb;
    return (struct rect){a0, a1, b0, b1, off, amajor ? b1 - b0 : 1,
                         amajor ? 1 : a1 - a0};
}

static i64 sites(const struct rect *r)
{
    return (r->a1 - r->a0) * (r->b1 - r->b0);
}

/* Where site i of r, in its order, lies in a column of nxt. */
static i64 offset(const struct view *v, const struct rect *r, i64 i)
{
    const i64 na = r->a1 - r->a0, nb = r->b1 - r->b0;
    const i64 a = r->fa == 1 ? i % na : i / nb;
    const i64 b = r->fa == 1 ? i / na : i % nb;
    return (r->a0 + a) * v->sa + (r->b0 + b) * v->sb;
}

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

/* A region's rows in a column: rectangles staged through the block buffer
 * and rectangles of vectors loaded straight from prv, their sites, and the
 * run in nxt that every direct vector makes. */
struct plan {
    struct rect s[6], d[3];
    int ns, nd, run;
    i64 staged, direct;
};

/* Appends rows [a0, a1) x [b0, b1), if any, to pl's direct or staged
 * rectangles. */
static void add(struct plan *pl, const struct view *v, i64 a0, i64 a1,
                i64 b0, i64 b1, int direct)
{
    if (b0 >= b1)
        return;
    i64 *n = direct ? &pl->direct : &pl->staged;
    struct rect *r = direct ? &pl->d[pl->nd++] : &pl->s[pl->ns++];
    *r = rect(v, a0, a1, b0, b1, *n);
    *n += sites(r);
}

/* Region rows [y0, y1) as row_rects cuts them, each split along b at
 * [lo, hi): the rows b in [blo, bhi), where every population's source lies
 * in the site's own row a at b - cy, rounded inward to whole vectors.
 * There the sources of 8 sites are their destinations less one offset per
 * population.  [lo, hi) is loaded direct if each of its vectors is a run of
 * 8, or of two 4s, the same for all; every other row is staged. */
static void plan(const struct view *v, i64 y0, i64 y1, i64 blo, i64 bhi,
                 struct plan *pl)
{
    struct rect r[3];
    const int k = row_rects(v, y0, y1, r);
    *pl = (struct plan){.run = 0};
    for (int i = 0; i < k; i++) {
        const i64 a0 = r[i].a0, a1 = r[i].a1;
        i64 g = 1;  /* b rows per vector */
        while ((a1 - a0) * g % 8)
            g *= 2;
        i64 lo = ((r[i].b0 > blo ? r[i].b0 : blo) + g - 1) / g * g;
        i64 hi = (r[i].b1 < bhi ? r[i].b1 : bhi) / g * g;
        const struct rect m = rect(v, a0, a1, lo, hi, 0);
        int run = lo < hi ? pl->run : 1;
        for (i64 j = 0, o[8]; run != 1 && j < sites(&m); j += 8) {
            for (int t = 0; t < 8; t++)
                o[t] = offset(v, &m, j + t);
            run = !run || run == run_length(o) ? run_length(o) : 1;
        }
        if (run == 1)
            lo = hi = r[i].b1;
        else
            pl->run = run;
        add(pl, v, a0, a1, r[i].b0, lo, 0);
        add(pl, v, a0, a1, lo, hi, 1);
        add(pl, v, a0, a1, hi, r[i].b1, 0);
    }
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

/* Population p of the 8 sites: staged at f + p * ld, or, given disp,
 * straight from prv at f + disp[p] + o[k], loaded as put() stores run 8 or
 * 4.  Always inlined, so that each caller's choice folds away. */
__attribute__((always_inline)) static inline v8d load(
    const double *f, i64 ld, const i64 *disp, i64 p, const i64 *o, int run)
{
    if (!disp)
        return *(const v8d *)(f + p * ld);
    f += disp[p];
    if (run == 8)
        return *(const v8d *)(f + o[0]);
    const v4d lo = *(const v4d *)(f + o[0]), hi = *(const v4d *)(f + o[4]);
    return (v8d){lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]};
}

/* Relax 8 sites, population p as load() reads it from f, and write the
 * first m of them to nxt, population p of site k at d + p * sp + o[k], as
 * put() stores run: rho, jx and jy, then a = rho - |j|^2 / rho * c_a and
 * g = c_g / rho, as kernels._density_momentum and kernels._relax form them;
 * then per opposite pair f <- f (1 - omega) + (even +- odd).  Always
 * inlined, so that a caller's constant run and m take no test. */
__attribute__((always_inline)) static inline void collide(
    const struct model *c, const double *f, i64 ld, const i64 *disp,
    double *d, i64 sp, const i64 *o, int run, int m)
{
    v8d rho = {0}, jx = {0}, jy = {0};
    for (i64 p = 0; p < c->q; p++) {
        const v8d fp = load(f, ld, disp, p, o, run);
        /* a direct load reads all q populations at once, too many streams
         * for the hardware prefetcher where prv is not in cache: ask for
         * each one's line 512 B on, 8 vectors ahead in SoA */
        if (disp)
            __builtin_prefetch(f + disp[p] + o[0] + 64);
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
    for (i64 k = 0; k < c->npairs; k++) {
        const i64 p = c->pair_p[k], q = c->pair_q[k];
        v8d t = (double)c->cx[p] * jx + (double)c->cy[p] * jy;
        const v8d even = (t * t * g + a) * c->pair_w[k];
        t = t * c->pair_wcs[k];
        put(d + p * sp, o, run, m,
            load(f, ld, disp, p, o, run) * c->om1 + (even + t));
        if (q != p)
            put(d + q * sp, o, run, m,
                load(f, ld, disp, q, o, run) * c->om1 + (even - t));
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
    i64 blo = 0, bhi = nb;  /* the rows b with b - cy in [0, nb) for all p */
    for (i64 p = 0; p < q; p++) {
        blo = cy[p] > blo ? cy[p] : blo;
        bhi = nb + cy[p] < bhi ? nb + cy[p] : bhi;
    }
    struct plan pl;
    plan(&v, y0, y1, blo, bhi, &pl);
    /* blocks of whole region columns */
    const i64 rows = y1 - y0;
    i64 width = block_sites / rows > 1 ? block_sites / rows : 1;
    if (width > x1 - x0)
        width = x1 - x0;
    /* populations lie a cache line further apart than a block's staged
     * sites: faster on every layout measured, by up to a tenth for AoS; a
     * last vector of fewer than 8 sites reads into that gap, zeroed here */
    const i64 cap = width * pl.staged, ld = cap + 8;
    const i64 size = q * ld * (i64)sizeof(double)
                     + (cap + pl.direct + q) * (i64)sizeof(i64);
    double *f = calloc(size, 1);
    if (!f)
        return size;
    /* o[i]: where staged site i of every block lies in nxt, from column xb;
     * od[i]: where direct site i lies in nxt, from its column; disp[p]: how
     * far population p's source lies from its destination */
    i64 *o = (i64 *)(f + q * ld), *od = o + cap, *disp = od + pl.direct;
    for (i64 x = 0; x < width; x++)
        for (int k = 0; k < pl.ns; k++)
            for (i64 i = 0; i < sites(&pl.s[k]); i++)
                o[x * pl.staged + pl.s[k].off + i] =
                    x * sx + offset(&v, &pl.s[k], i);
    for (int k = 0; k < pl.nd; k++)
        for (i64 i = 0; i < sites(&pl.d[k]); i++)
            od[pl.d[k].off + i] = offset(&v, &pl.d[k], i);
    for (i64 p = 0; p < q; p++)
        disp[p] = p * sp - cx[p] * sx - cy[p] * sb;

    for (i64 xb = x0; xb < x1; xb += width) {
        i64 nx = x1 - xb < width ? x1 - xb : width, n = nx * pl.staged, i;
        for (i64 x = xb; x < xb + nx; x++)
            for (i = 0; i < pl.direct; i += 8)
                if (pl.run == 8)
                    collide(&mdl, prv + x * sx, 0, disp, nxt + x * sx, sp,
                            od + i, 8, 8);
                else
                    collide(&mdl, prv + x * sx, 0, disp, nxt + x * sx, sp,
                            od + i, 4, 8);
        for (i64 p = 0; p < q; p++)
            for (int k = 0; k < pl.ns; k++)
                pull(&v, prv, p, opposite[p], xb, nx, cx[p], cy[p], walls,
                     &pl.s[k], f + p * ld, pl.staged);
        for (i = 0; i + 8 <= n; i += 8)
            collide(&mdl, f + i, ld, NULL, nxt + xb * sx, sp, o + i,
                    run_length(o + i), 8);
        if (i < n)
            collide(&mdl, f + i, ld, NULL, nxt + xb * sx, sp, o + i, 1,
                    (int)(n - i));
    }
    free(f);
    return 0;
}
