/* Compiled modular kernels.
 *
 * Mirrors _kernels_py for moduli below 2**63: residues live in unsigned
 * 64-bit words and every product goes through a 128-bit intermediate, so
 * results are exact.  The dispatcher in kernels.py routes larger inputs to
 * the pure backend.
 *
 * scan makes the decisions of _kernels_py.decide, gates, outcomes and
 * counts alike, by a cheaper route, for the same kinds and records: "lucas"
 * with a LucasParams (P, Q), "pell" with a PellParams (d, x, y, a), whose a
 * is None for a point.  Only a point is checked for the conic: phi's image
 * of a seed a is always on it, as (a^2 + d)^2 - d (2a)^2 = (a^2 - d)^2.
 * Its Lucas core and is_prime run on Montgomery products, which need an odd
 * modulus (every n here is odd and below 2**63).  The core is a ladder on V alone, and decides U_k by
 * D U_k = 2 V_{k+1} - P V_k: every tested n has gcd(D, n) = 1 (the jacobi
 * gate for Lucas; for Pell D = 4 d y^2 with gcd(y, n) = 1 and (d/n) != 0),
 * so U_k = 0 exactly when 2 V_{k+1} = P V_k.  The scan gates each n in
 * turn and collects the tested ones into groups of LANES, whose ladders
 * run side by side, one product of each lane per step, so that the
 * products overlap in the pipeline; each group is then decided in n order.
 * The lanes were kept over one ladder per n: they pay for Q = 1 (every
 * Pell search) and cost a little for Q != 1.  One ladder's time over the
 * lanes', both builds in one process, 300 shuffled rounds per case on one
 * core of a 2-core Intel Xeon (gcc 12.2): Lucas (3, 1) at 10^12 1.14 and
 * 1.06, seed (6, 4) at 10^12 1.14 and 1.11, Lucas (4, 3) at 10^12 0.96 and
 * 0.95, and at 2^62 0.93 and 0.97; a LANES = 1 build read as one ladder
 * did.  A CPU with more multiply throughput may differ.
 * Primality is asked lazily, as in decide: only where U_k = 0, since a
 * prime that passes the gates always has U_k = 0.  Miller-Rabin takes the
 * bases that n's size needs (_kernels_py.MR_BATTERY) and runs them in
 * lockstep too.  Its skips are rows of _kernels_py's Skip namedtuple, with
 * the reason strings that module defines; the module init fetches both.
 *
 * A sieve by the odd primes p below SIEVE_BOUND = 512 decides most tested
 * n before the ladder.  The lemma (Baillie and Wagstaff, "Lucas
 * pseudoprimes", Math. Comp. 35, 1980): for p not dividing Q, p | U_k
 * exactly when the rank of apparition w(p), the least j >= 1 with
 * p | U_j, divides k; and w(p) | p - (D/p) when p does not divide 2QD.
 * On the paper's conic it is a group fact: mod p, x^2 - d y^2 = 1 under
 * the Brahmagupta product is a cyclic group of order p - (d/p), and
 * (x, y)^k = (V_k/2, y U_k) with p not dividing y has y U_k = 0 exactly
 * when (x, y)^k = (+-1, 0), so w(p) is the order of (x, y) modulo +-1.
 * So a composite n with a factor p and w(p) not dividing k = n - (D/n) has
 * U_k != 0 mod p, hence mod n: CompositeDetected, with no ladder.  At
 * its first tested n, the scan marks each window of SIEVE_WINDOW odd n
 * with the odd multiples m != p of each p, one bit for w(p) not dividing
 * m - 1 and one for m + 1, and when hi < 512^2 a third bit for a factor
 * below 512.  Every
 * odd composite below 512^2 has one, so there an unmarked tested n is
 * prime, with neither ladder nor Miller-Rabin; 512^2 = 262144 covers the
 * small-n range, 3..2*10^5.  The ranks come from the raw parameters mod p
 * by the recurrence, and are 0 (no rank bit) where the gates skip every
 * multiple of p.  A one-entry memo, keyed by the kind (Lucas, Pell seed
 * or point) and the raw parameters, keeps them from one call to the next,
 * so a search pays for them once.
 *
 * Each gate asks about an integer fixed for the whole search, modulo n:
 * for Lucas (D/n) with D = P^2 - 4Q, then gcd(Q, n); for a seed gcd(t, n)
 * with t = a^2 - d (phi defined), then gcd(y, n), which is gcd(2a, n)
 * once t is a unit, as y = 2a/t; for a point n | C with C = x^2 - d y^2 - 1
 * (on the conic), then gcd(y, n); for both Pell forms (d/n) last.  The
 * scan computes these constants once per call, in signed 128-bit
 * arithmetic, and reads them per n with no 64-bit division.  Of a
 * constant c = +-2^e c' with c' odd and below 2^63 it holds r = n mod c',
 * stepped by 2 with n; then gcd(c, n) = gcd(c', r), as n is odd, and by
 * quadratic reciprocity for the Jacobi symbol (Crandall and Pomerance,
 * Prime Numbers, 2.3) (c/n) = +-(r/c'), with the sign read from n mod 8,
 * c's sign, e and c' mod 4.  Where c' < 64, two masks built once per call
 * hold, for every r, whether gcd(r, c') = 1 and whether (r/c') = -1.
 * c = 0 and a c' of 2^63 or more are reduced mod each n instead, and
 * n | C fails outright for C != 0 and n > |C|.  P and Q mod
 * n, and a seed's x = (a^2 + d)/t with the inverse of t, are taken only
 * for an n that reaches a lane group: no gate reads them, and the sieve
 * decides most n first.
 *
 * Build in place with:  python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;
typedef __int128 i128;

/* PyLong_AsUnsignedLong reads the digits directly; the long long variant
 * goes through a byte-array copy, about 10% of a pell_pow call. */
#if ULONG_MAX == UINT64_MAX
#define AS_U64 PyLong_AsUnsignedLong
#else
#define AS_U64 PyLong_AsUnsignedLongLong
#endif

/* The rows of _kernels_py.MR_BATTERY that u64 moduli reach: no composite
 * below a row's bound is a strong probable prime to every one of its bases
 * (OEIS A014233).  The last row's bound lies above 2**64, so that row
 * takes every n the rows before it do not. */
enum { MR_ROWS = 6, MR_MAX_BASES = 12 };
static const struct {
    u64 bound;
    int count;
    u64 bases[MR_MAX_BASES];
} MR_BATTERY[MR_ROWS] = {
    {1373653, 2, {2, 3}},
    {4759123141, 3, {2, 7, 61}},
    {3474749660383, 6, {2, 3, 5, 7, 11, 13}},
    {341550071728321, 7, {2, 3, 5, 7, 11, 13, 17}},
    {3825123056546413051, 9, {2, 3, 5, 7, 11, 13, 17, 19, 23}},
    {UINT64_MAX, 12, {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}},
};

/* The scan's group size: it runs the V-ladder of this many n at once. */
enum { LANES = 4 };

/* The scan's sieve: the odd primes below SIEVE_BOUND, over windows of
 * SIEVE_WINDOW odd n.  Every odd composite below SIEVE_BOUND^2 = 262144
 * has a prime factor below SIEVE_BOUND. */
enum { SIEVE_BOUND = 512, SIEVE_WINDOW = 1024 };

static inline u64
mulmod(u64 a, u64 b, u64 n)
{
    return (u64)((u128)a * b % n);
}

static inline u64
addmod(u64 a, u64 b, u64 n)
{
    /* a, b < n < 2**63: the sum cannot overflow */
    u64 s = a + b;
    return s >= n ? s - n : s;
}

/* 2a mod n for a < n, for every n < 2**64: a carry out of 2a means
 * 2a >= 2**64 > n.  The subtraction is masked, not branched on, since
 * whether it happens depends on a and cannot be predicted. */
static inline u64
dblmod(u64 a, u64 n)
{
    u64 s = a << 1;
    return s - (n & (0 - ((a >> 63) | (s >= n))));
}

static inline u64
submod(u64 a, u64 b, u64 n)
{
    return a >= b ? a - b : a + (n - b);
}

static inline u64
half(u64 a, u64 n)
{
    /* exact halving mod odd n */
    return (a & 1) ? (a + n) >> 1 : a >> 1;
}

/* the highest set bit of k >= 1 */
static inline u64
top_bit(u64 k)
{
    return (u64)1 << (63 - __builtin_clzll(k));
}

/* Montgomery arithmetic mod odd n with R = 2**64 (Montgomery 1985): a
 * residue a is held as aR mod n, and a product costs three multiplications
 * and no division.  Equal residues have equal forms, so congruences are
 * checked on the forms directly. */
typedef struct {
    u64 n, ninv, one, r2;  /* n, n^-1 mod R, R mod n, R^2 mod n */
} mont;

static void
mont_init(mont *m, u64 n)
{
    u64 inv = n;  /* n * n = 1 mod 8; each Newton step doubles the good bits */
    for (int i = 0; i < 5; i++)
        inv *= 2 - n * inv;
    m->n = n;
    m->ninv = inv;
    m->one = (0 - n) % n;
    m->r2 = (u64)((u128)m->one * m->one % n);
}

/* aR^-1 mod n for a < nR.  With t = (a mod R) n^-1 mod R, a and tn agree in
 * their low words, so (a - tn) / R is the difference of the high words, in
 * (-n, n): no 128-bit carry, for every odd n < 2**64. */
static inline u64
redc(u128 a, const mont *m)
{
    u64 t = (u64)a * m->ninv;
    u64 hi = (u64)(a >> 64), tn = (u64)(((u128)t * m->n) >> 64);
    return hi >= tn ? hi - tn : hi - tn + m->n;
}

static inline u64
mont_mul(u64 a, u64 b, const mont *m)
{
    return redc((u128)a * b, m);
}

/* the Montgomery form of any a < 2**64 */
static inline u64
to_mont(u64 a, const mont *m)
{
    return mont_mul(a, m->r2, m);
}

/* LANES tested n of one scan, in n order: each n's Montgomery context, its
 * P and Q in Montgomery form, and its k = n - (D/n). */
typedef struct {
    mont m[LANES];
    u64 p[LANES], q[LANES], k[LANES];
} group;

/* (V_k, V_{k+1}) of every lane of g at once, lane l mod g->m[l].n, which is
 * odd and below 2**63.  The ladder keeps (V_j, V_{j+1}) over the leading
 * bits j of k, by V_{2j} = V_j^2 - 2Q^j and V_{2j+1} = V_j V_{j+1} - P Q^j
 * (Crandall and Pomerance, Prime Numbers, 3.6): 2 products per bit when
 * Q = 1.  Only when some lane has Q != 1 is Q^j tracked as well, for 4 or
 * 5 products per bit; for a lane with Q = 1 that stays exact.  Every lane
 * starts at (V_0, V_1) = (2, P), Q^0 = 1, at the top bit of the widest k:
 * a leading 0 bit leaves that state as it is, so the lanes' k may differ
 * in length.  The lanes' products do not wait on each other, so they
 * overlap in the pipeline where one ladder would wait on each in turn. */
static void
v_ladder(const group *g, u64 *v0, u64 *v1)
{
    const mont *m = g->m;
    const u64 *p = g->p, *q = g->q, *k = g->k;
    u64 pq[LANES], two_q[LANES], qj[LANES], all_k = 0;
    int track = 0;
    for (int l = 0; l < LANES; l++) {
        v0[l] = addmod(m[l].one, m[l].one, m[l].n);
        v1[l] = pq[l] = p[l];
        two_q[l] = v0[l];
        qj[l] = m[l].one;
        track |= q[l] != m[l].one;
        all_k |= k[l];
    }
    for (u64 bit = top_bit(all_k); bit; bit >>= 1) {
        for (int l = 0; l < LANES; l++) {
            const mont *ml = &m[l];
            u64 n = ml->n;
            int set = (k[l] & bit) != 0;
            if (track) {
                u64 qs = set ? mont_mul(qj[l], q[l], ml) : qj[l];  /* Q^(j + set) */
                pq[l] = mont_mul(p[l], qj[l], ml);
                two_q[l] = addmod(qs, qs, n);
                qj[l] = mont_mul(qj[l], qs, ml);
            }
            u64 a = v0[l], b = v1[l], c = set ? b : a;
            u64 mid = submod(mont_mul(a, b, ml), pq[l], n);
            u64 sq = submod(mont_mul(c, c, ml), two_q[l], n);
            v0[l] = set ? mid : sq;
            v1[l] = set ? sq : mid;
        }
    }
}

/* Whether odd n >= 3, coprime to every base, is a strong probable prime to
 * each of the `count` bases, with n - 1 = d 2**s.  The bases run in
 * lockstep: each step takes the product of every base before the next, so
 * the products overlap in the pipeline. */
static inline __attribute__((always_inline)) int
mr_lockstep(const mont *m, const u64 *bases, int count, u64 d, int s)
{
    u64 x[MR_MAX_BASES], b[MR_MAX_BASES], minus_one = m->n - m->one;
    unsigned open = 0;  /* the bases whose powers have not yet met -1 */
    for (int j = 0; j < count; j++)
        x[j] = b[j] = to_mont(bases[j], m);
    for (u64 bit = top_bit(d) >> 1; bit; bit >>= 1) {
        for (int j = 0; j < count; j++)
            x[j] = mont_mul(x[j], x[j], m);
        if (d & bit)
            for (int j = 0; j < count; j++)  /* x 2 needs no product */
                x[j] = bases[j] == 2 ? dblmod(x[j], m->n) : mont_mul(x[j], b[j], m);
    }
    for (int j = 0; j < count; j++)
        if (x[j] != m->one && x[j] != minus_one)
            open |= 1u << j;
    for (int i = 1; i < s && open; i++)
        for (int j = 0; j < count; j++)
            if (open >> j & 1 && (x[j] = mont_mul(x[j], x[j], m)) == minus_one)
                open &= ~(1u << j);
    return open == 0;  /* an open base is a witness: n is composite */
}

/* Deterministic primality of an odd n >= 3, on Montgomery products, with
 * the bases of the first MR_BATTERY row whose bound is above n.  With
 * `screen`, base 2 runs alone first, and the rest only if it passes: most
 * composites fail base 2, so an arbitrary n pays for one base.  Without
 * it every base runs in lockstep, for the scan, which asks only where
 * U_k = 0, so that n is almost always prime. */
static int
is_prime_mont(const mont *m, int screen)
{
    u64 n = m->n, d = n - 1;
    int row = 0, s = 0;
    while (row < MR_ROWS - 1 && n >= MR_BATTERY[row].bound)
        row++;
    const u64 *bases = MR_BATTERY[row].bases;
    int count = MR_BATTERY[row].count;
    for (int j = 1; j < count; j++)  /* bases[0] = 2 divides no odd n */
        if (n % bases[j] == 0)
            return n == bases[j];
    while ((d & 1) == 0) {
        d >>= 1;
        s++;
    }
    if (screen)
        return mr_lockstep(m, bases, 1, d, s) && mr_lockstep(m, bases + 1, count - 1, d, s);
    return mr_lockstep(m, bases, count, d, s);
}

/* Convert exactly `want` positional arguments to u64; -1 with an
 * exception set on a wrong count, a non-int or a value outside [0, 2**64). */
static int
args_u64(const char *name, PyObject *const *args, Py_ssize_t nargs,
         Py_ssize_t want, u64 *out)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    for (Py_ssize_t i = 0; i < want; i++) {
        out[i] = AS_U64(args[i]);
        if (out[i] == (u64)-1 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int
nonzero_modulus(u64 n)
{
    if (n == 0)
        PyErr_SetString(PyExc_ZeroDivisionError, "modulus must be nonzero");
    return n != 0;
}

static PyObject *
pair(u64 a, u64 b)
{
    PyObject *x = PyLong_FromUnsignedLongLong(a);
    PyObject *y = PyLong_FromUnsignedLongLong(b);
    PyObject *t = (x && y) ? PyTuple_Pack(2, x, y) : NULL;
    Py_XDECREF(x);
    Py_XDECREF(y);
    return t;
}

/* gcd(a, m) for odd m, and the Jacobi symbol (a/m) in *sym (0 when the gcd
 * is not 1), by the binary algorithm: strip a's factors of 2, each flipping
 * the sign when m = 3, 5 mod 8, since (2/m) = -1 there; swap so that m is
 * the smaller, flipping the sign when both are 3 mod 4 (reciprocity);
 * subtract.  The loop ends at a = 0 with m = gcd(a, m).  Only where a swap
 * leaves a over 256 times m does it divide (a mod m), which spares a small
 * D against a large n some 40 subtractions; the scan's gates pass
 * (n mod c', c'), which never divides for c' < 256.  Only bit 0 of flip is
 * read. */
static u64
jacobi_gcd(u64 a, u64 m, int *sym)
{
    u64 flip = 0;
    while (a) {
        int z = __builtin_ctzll(a);
        a >>= z;
        flip ^= (u64)z & ((m >> 1) ^ (m >> 2));
        if (a < m) {
            u64 t = a;
            flip ^= (a & m) >> 1;
            a = m;
            m = t;
            if (a >> 8 > m) {
                a %= m;
                continue;
            }
        }
        a -= m;
    }
    *sym = m != 1 ? 0 : flip & 1 ? -1 : 1;
    return m;
}

static PyObject *
jacobi(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 v[2];
    int sym;
    /* on m = 0 the binary loop would never end */
    if (args_u64("jacobi", args, nargs, 2, v) < 0 || !nonzero_modulus(v[1]))
        return NULL;
    jacobi_gcd(v[0], v[1], &sym);
    return PyLong_FromLong(sym);
}

/* (U_k, V_k) mod n by fast doubling, for p, q < n and k >= 1: the single
 * lucas_uv kernel, which must give U_k for any D (scan decides on V alone). */
static void
lucas_core(u64 p, u64 q, u64 k, u64 n, u64 *u_out, u64 *v_out)
{
    u64 u = 1, v = p, qk = q;
    u64 d = submod(mulmod(p, p, n), mulmod(4 % n, q, n), n);
    for (u64 bit = top_bit(k) >> 1; bit; bit >>= 1) {
        u64 u2 = mulmod(u, v, n);
        u64 v2 = submod(mulmod(v, v, n), mulmod(2 % n, qk, n), n);
        qk = mulmod(qk, qk, n);
        if (k & bit) {
            u = half(addmod(mulmod(p, u2, n), v2, n), n);
            v = half(addmod(mulmod(d, u2, n), mulmod(p, v2, n), n), n);
            qk = mulmod(qk, q, n);
        } else {
            u = u2;
            v = v2;
        }
    }
    *u_out = u;
    *v_out = v;
}

static PyObject *
lucas_uv(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 v4[4], u, v;
    if (args_u64("lucas_uv", args, nargs, 4, v4) < 0 || !nonzero_modulus(v4[3]))
        return NULL;
    u64 p = v4[0], q = v4[1], k = v4[2], n = v4[3];
    if (k == 0)
        return pair(0, 2 % n);
    lucas_core(p, q, k, n, &u, &v);
    return pair(u, v);
}

static PyObject *
pell_pow(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 v[5];
    if (args_u64("pell_pow", args, nargs, 5, v) < 0 || !nonzero_modulus(v[4]))
        return NULL;
    u64 x = v[0], y = v[1], d = v[2], e = v[3], n = v[4];
    u64 rx = 1, ry = 0, nx, ny;
    while (e) {
        if (e & 1) {
            nx = addmod(mulmod(rx, x, n), mulmod(d, mulmod(ry, y, n), n), n);
            ny = addmod(mulmod(rx, y, n), mulmod(ry, x, n), n);
            rx = nx;
            ry = ny;
        }
        nx = addmod(mulmod(x, x, n), mulmod(d, mulmod(y, y, n), n), n);
        ny = mulmod(addmod(x, x, n), y, n);
        x = nx;
        y = ny;
        e >>= 1;
    }
    return pair(rx, ry);
}

static PyObject *
is_prime(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 n;
    mont m;
    if (args_u64("is_prime", args, nargs, 1, &n) < 0)
        return NULL;
    if (n < 3 || !(n & 1))
        return PyBool_FromLong(n == 2);
    mont_init(&m, n);
    return PyBool_FromLong(is_prime_mont(&m, 1));
}

/* t^-1 mod n for gcd(t, n) = 1, by the extended Euclidean algorithm; the
 * Bezout coefficients stay below n < 2**63 in absolute value. */
static u64
invmod(u64 t, u64 n)
{
    int64_t r0 = (int64_t)n, r1 = (int64_t)t, s0 = 0, s1 = 1, q, tmp;
    while (r1) {
        q = r0 / r1;
        tmp = r0 - q * r1;
        r0 = r1;
        r1 = tmp;
        tmp = s0 - q * s1;
        s0 = s1;
        s1 = tmp;
    }
    return s0 < 0 ? (u64)(s0 + (int64_t)n) : (u64)s0;
}

/* v mod n for a signed v and 0 < n < 2**63; no division where 0 <= v < n,
 * as for the small P, Q, a and d of most searches */
static inline u64
reduce(long long v, u64 n)
{
    if (v >= 0 && (u64)v < n)
        return (u64)v;
    long long r = v % (long long)n;
    return r < 0 ? (u64)(r + (long long)n) : (u64)r;
}

/* A constant c of a scan's gates, c = +-2^e c' with c' odd, read against
 * each odd n in turn (see the header).  (c/n) = (+-1/n) (2/n)^e (c'/n),
 * and (c'/n) = (r/c') but flipped when c' = n = 3 mod 4: the sign depends
 * on n mod 8 alone.  The masks spare a small constant, as every benchmark
 * search has, its binary Jacobi on each coprime n: about 4% of a small-n
 * scan. */
enum { MASK_BOUND = 64 };
typedef struct {
    i128 c;
    u64 odd, r, step;  /* c', n mod c', 2 mod c'; odd = 0 where c is reduced mod n */
    u64 unit, minus;   /* for c' < MASK_BOUND, bit r: gcd(r, c') = 1, (r/c') = -1 */
    unsigned flips;    /* bit j: (c/n) = -(r/c') for n = 2j + 1 mod 8 */
} constant;

static void
constant_init(constant *k, i128 c, u64 first)
{
    u128 odd = c < 0 ? -(u128)c : (u128)c;
    int e = 0;
    memset(k, 0, sizeof *k);
    k->c = c;
    if (odd == 0)
        return;
    for (; !(odd & 1); odd >>= 1)
        e++;
    if (odd >> 63)
        return;
    k->odd = (u64)odd;
    k->r = first % k->odd;
    k->step = 2 % k->odd;
    for (u64 r = 0; k->odd < MASK_BOUND && r < k->odd; r++) {
        int sym;
        if (jacobi_gcd(r, k->odd, &sym) == 1)
            k->unit |= (u64)1 << r;
        if (sym < 0)
            k->minus |= (u64)1 << r;
    }
    for (unsigned j = 0; j < 4; j++) {
        unsigned n8 = 2 * j + 1, minus = n8 % 4 == 3;  /* (-1/n) = -1 */
        unsigned two = (e & 1) && (n8 == 3 || n8 == 5);  /* (2/n)^e = -1 */
        k->flips |= ((c < 0 && minus) ^ two ^ (k->odd % 4 == 3 && minus)) << j;
    }
}

/* from n to n + 2 */
static inline void
constant_step(constant *k)
{
    u64 r = k->r + k->step;
    k->r = r >= k->odd ? r - k->odd : r;
}

/* gcd(c, n) for the odd n the scan is at, and (c/n) in *sym */
static inline u64
constant_gcd(const constant *k, u64 n, int *sym)
{
    if (k->odd == 0) {
        i128 r = k->c % (i128)n;
        return jacobi_gcd((u64)(r < 0 ? r + (i128)n : r), n, sym);
    }
    unsigned flip = k->flips >> (n >> 1 & 3) & 1;
    if (k->odd < MASK_BOUND && (k->unit >> k->r & 1)) {
        *sym = (k->minus >> k->r & 1) ^ flip ? -1 : 1;
        return 1;
    }
    u64 g = jacobi_gcd(k->r, k->odd, sym);
    if (flip)
        *sym = -*sym;
    return g;
}

/* |C| for a point (d, x, y), C = x^2 - d y^2 - 1, or the u128 maximum
 * where C overflows 128 bits */
static u128
conic_size(const long long *par)
{
    i128 c;
    if (__builtin_mul_overflow((i128)par[2] * par[2], (i128)par[0], &c) ||
        __builtin_sub_overflow((i128)par[1] * par[1] - 1, c, &c))
        return ~(u128)0;
    return c < 0 ? -(u128)c : (u128)c;
}

/* Whether a point (d, x, y) is on x^2 - d y^2 = 1 mod n: whether n divides
 * C = x^2 - d y^2 - 1, which for C != 0 fails outright when n > |C|.
 * conic is |C|, saturated where C overflows 128 bits. */
static inline int
on_conic(const long long *par, u128 conic, u64 n)
{
    if (conic == 0)
        return 1;
    if (n > conic)
        return 0;
    u64 d = reduce(par[0], n), x = reduce(par[1], n), y = reduce(par[2], n);
    return submod(mulmod(x, x, n), mulmod(d, mulmod(y, y, n), n), n) == 1;
}

/* The odd primes below SIEVE_BOUND, set by the module init. */
static unsigned sieve_primes[SIEVE_BOUND / 2];
static int sieve_count;

static void
init_sieve_primes(void)
{
    unsigned char composite[SIEVE_BOUND] = {0};
    for (unsigned p = 3; p < SIEVE_BOUND; p += 2) {
        if (composite[p])
            continue;
        sieve_primes[sieve_count++] = p;
        for (unsigned m = p * p; m < SIEVE_BOUND; m += 2 * p)
            composite[m] = 1;
    }
}

/* The rank of apparition of the odd prime p in U(P, Q), the least j >= 1
 * with p | U_j, for P, Q < p and p not dividing QD; it divides p - (D/p),
 * so the recurrence meets it by j = p + 1 (0 if not, which cannot be). */
static unsigned
rank_of(u64 P, u64 Q, u64 p)
{
    u64 u0 = 0, u1 = 1;
    for (unsigned j = 1; j <= p + 1; j++) {
        if (u1 == 0)
            return j;
        u64 t = (P * u1 + (p - Q) * u0) % p;  /* U_{j+1} = P U_j - Q U_{j-1} */
        u0 = u1;
        u1 = t;
    }
    return 0;
}

/* The rank of the odd prime p for a scan's test, the Lucas (P, Q) or the
 * Pell P = 2x, Q = 1 with D = 4 d y^2, from the raw parameters reduced mod
 * p.  0 where the gates skip every multiple of p: p | QD for Lucas; for
 * Pell phi undefined mod p, the point off the conic mod p, or p | yd. */
static unsigned
test_rank(int lucas, int seed, const long long *par, u64 p)
{
    u64 P, Q = 1;
    if (lucas) {
        P = reduce(par[0], p);
        Q = reduce(par[1], p);
        if (Q == 0 || mulmod(P, P, p) == mulmod(4, Q, p))
            return 0;
    } else {
        u64 d = reduce(par[0], p), x, y;
        if (seed) {
            u64 a = reduce(par[1], p), t = submod(mulmod(a, a, p), d, p);
            if (t == 0)
                return 0;
            u64 inv = invmod(t, p);
            x = mulmod(addmod(mulmod(a, a, p), d, p), inv, p);
            y = mulmod(addmod(a, a, p), inv, p);
        } else {
            x = reduce(par[1], p);
            y = reduce(par[2], p);
            if (submod(mulmod(x, x, p), mulmod(d, mulmod(y, y, p), p), p) != 1)
                return 0;
        }
        if (y == 0 || d == 0)
            return 0;
        P = addmod(x, x, p);
    }
    return rank_of(P, Q, p);
}

/* The ranks of the last scan's test, one per sieve prime, keyed by its
 * kind (Lucas, Pell seed or Pell point) and its raw parameters: a search
 * scans block after block with one test, and pays for them once. */
static struct {
    int filled, lucas, seed;
    long long par[3];
    unsigned short rank[SIEVE_BOUND / 2];
} rank_memo;

static const unsigned short *
test_ranks(int lucas, int seed, const long long *par)
{
    if (!(rank_memo.filled && rank_memo.lucas == lucas && rank_memo.seed == seed &&
          memcmp(rank_memo.par, par, sizeof rank_memo.par) == 0)) {
        for (int j = 0; j < sieve_count; j++)
            rank_memo.rank[j] = test_rank(lucas, seed, par, sieve_primes[j]);
        rank_memo.filled = 1;
        rank_memo.lucas = lucas;
        rank_memo.seed = seed;
        memcpy(rank_memo.par, par, sizeof rank_memo.par);
    }
    return rank_memo.rank;
}

/* A window's marks on an odd n: that some prime p | n, p != n, has its rank
 * w(p) not dividing n - 1 (or n + 1), and, for an exact scan, that n has a
 * factor below SIEVE_BOUND. */
enum { RANK_NDIV_MINUS = 1, RANK_NDIV_PLUS = 2, SMALL_FACTOR = 4 };

/* Mark the odd n = w0 + 2i, i < width, with each odd multiple m != p of
 * each sieve prime p: RANK_NDIV_MINUS where w(p) does not divide m - 1,
 * RANK_NDIV_PLUS where it does not divide m + 1 (none where the rank is
 * 0), and if `exact` SMALL_FACTOR.  m mod w(p) steps with m, with no
 * division per mark. */
static void
sieve_window(const unsigned short *rank, u64 w0, unsigned width, int exact,
             unsigned char *flags)
{
    memset(flags, 0, width);
    for (int j = 0; j < sieve_count; j++) {
        u64 p = sieve_primes[j], w = rank[j];
        if (w == 0 && !exact)
            continue;
        u64 m = w0 + (p - w0 % p) % p;  /* the least multiple of p >= w0 */
        if ((m & 1) == 0)
            m += p;
        if (m == p)
            m += 2 * p;
        u64 i = (m - w0) >> 1, r = w ? m % w : 0, step = w ? 2 * p % w : 0;
        unsigned char mark = exact ? SMALL_FACTOR : 0;
        for (; i < width; i += p) {
            unsigned char bits = mark;
            if (w) {
                bits |= (r != 1) * RANK_NDIV_MINUS | (r != w - 1) * RANK_NDIV_PLUS;
                r += step;
                if (r >= w)
                    r -= w;
            }
            flags[i] |= bits;
        }
    }
}

enum { SKIP_JACOBI_ZERO, SKIP_GCD, SKIP_PHI_UNDEFINED, SKIP_NOT_ON_CONIC, SKIP_CODES };

/* _kernels_py.Skip and the reason of each skip code, set by the module
 * init and held for the life of the process. */
static PyTypeObject *skip_type;
static PyObject *skip_reasons[SKIP_CODES];
static const char *const SKIP_REASON_NAMES[SKIP_CODES] = {
    "REASON_JACOBI_ZERO", "REASON_GCD", "REASON_PHI_UNDEFINED", "REASON_NOT_ON_CONIC",
};

/* Append Skip(n, reason, factor) to skips; factor 0 stands for None.  The
 * row is allocated as the tuple subclass it is, after its items, as
 * CPython's structseq does, with no call into Skip.__new__. */
static int
add_skip(PyObject *skips, u64 n, int code, u64 factor)
{
    PyObject *pn = PyLong_FromUnsignedLongLong(n);
    PyObject *pf = factor ? PyLong_FromUnsignedLongLong(factor) : Py_NewRef(Py_None);
    PyObject *row = pn && pf ? skip_type->tp_alloc(skip_type, 3) : NULL;
    if (row == NULL) {
        Py_XDECREF(pn);
        Py_XDECREF(pf);
        return -1;
    }
    PyTuple_SET_ITEM(row, 0, pn);
    PyTuple_SET_ITEM(row, 1, Py_NewRef(skip_reasons[code]));
    PyTuple_SET_ITEM(row, 2, pf);
    /* an int, a str and an int or None: the row can be in no cycle, so it
     * leaves the collector, as a plain tuple of atoms does at its first
     * collection (a subclass's never does); tracked, every collection the
     * scan's allocations set off would traverse it */
    PyObject_GC_UnTrack(row);
    int rc = PyList_Append(skips, row);
    Py_DECREF(row);
    return rc;
}

/* Decide the first `used` lanes of g, in n order, and pad the rest with
 * copies of lane 0: count each prime and each detected composite, and
 * append each pseudoprime to hits; -1 with an exception set. */
static int
decide_group(group *g, int used, int strong, PyObject *hits,
             unsigned long long *primes, unsigned long long *detected)
{
    u64 v[LANES], v1[LANES];
    for (int l = used; l < LANES; l++) {
        g->m[l] = g->m[0];
        g->p[l] = g->p[0];
        g->q[l] = g->q[0];
        g->k[l] = g->k[0];
    }
    v_ladder(g, v, v1);
    for (int l = 0; l < used; l++) {
        const mont *m = &g->m[l];
        u64 n = m->n;
        /* D U_k = 2 V_{k+1} - P V_k with gcd(D, n) = 1 past the gates, so
         * U_k = 0 exactly when 2 V_{k+1} = P V_k; a prime always has
         * U_k = 0, so only then can n be prime */
        if (addmod(v1[l], v1[l], n) != mont_mul(g->p[l], v[l], m))
            (*detected)++;
        else if (is_prime_mont(m, 0))
            (*primes)++;
        else if (!strong || v[l] == addmod(m->one, m->one, n)) {
            PyObject *hit = PyLong_FromUnsignedLongLong(n);
            int rc = hit ? PyList_Append(hits, hit) : -1;
            Py_XDECREF(hit);
            if (rc < 0)
                return -1;
        } else
            (*detected)++;
    }
    return 0;
}

static PyObject *
scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long par[3] = {0, 0, 0};
    u64 lo, hi;
    if (nargs != 5) {
        PyErr_Format(PyExc_TypeError, "scan() takes 5 arguments (%zd given)", nargs);
        return NULL;
    }
    /* PyUnicode_CompareWithASCIIString reads any object as a str */
    int is_str = PyUnicode_Check(args[0]);
    int lucas = is_str && PyUnicode_CompareWithASCIIString(args[0], "lucas") == 0;
    if (!lucas && !(is_str && PyUnicode_CompareWithASCIIString(args[0], "pell") == 0)) {
        PyErr_Format(PyExc_ValueError, "kind must be 'lucas' or 'pell', got %R", args[0]);
        return NULL;
    }
    int strong = PyObject_IsTrue(args[1]);
    if (strong < 0)
        return NULL;
    Py_ssize_t want = lucas ? 2 : 4;
    if (!PyTuple_Check(args[2]) || PyTuple_GET_SIZE(args[2]) != want) {
        PyErr_Format(PyExc_TypeError, "scan() needs a tuple of %zd parameters", want);
        return NULL;
    }
    /* the one place where a seed is told from a point */
    int seed = !lucas && PyTuple_GET_ITEM(args[2], 3) != Py_None;
    /* (P, Q), a seed's (d, a) or a point's (d, x, y); None is a TypeError */
    for (Py_ssize_t i = 0; i < (lucas || seed ? 2 : 3); i++) {
        par[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(args[2], seed && i == 1 ? 3 : i));
        if (par[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    lo = AS_U64(args[3]);
    if (lo == (u64)-1 && PyErr_Occurred())
        return NULL;
    hi = AS_U64(args[4]);
    if (hi == (u64)-1 && PyErr_Occurred())
        return NULL;
    if (hi >> 63) {
        PyErr_SetString(PyExc_OverflowError, "scan() needs hi < 2**63");
        return NULL;
    }
    if (lo < 3) {
        /* n = 1 would give the ladder the exponent 0, which it cannot take */
        PyErr_SetString(PyExc_ValueError, "scan() needs lo >= 3");
        return NULL;
    }

    PyObject *hits = PyList_New(0), *skips = PyList_New(0);
    unsigned long long primes = 0, detected = 0;
    group grp;
    int used = 0;  /* the lanes of grp filled so far */
    if (hits == NULL || skips == NULL)
        goto fail;
    /* count the odd n rather than step past hi, which may be 2**63 - 1 */
    u64 first = lo | 1;
    u64 count = hi >= first ? (hi - first) / 2 + 1 : 0;
    const unsigned short *rank = test_ranks(lucas, seed, par);
    int exact = hi < (u64)SIEVE_BOUND * SIEVE_BOUND;
    unsigned char flags[SIEVE_WINDOW];
    u64 window = UINT64_MAX;  /* the window that flags holds */
    /* the constants the gates read: Lucas D = P^2 - 4Q and Q; a seed's
     * t = a^2 - d, 2a and d (gcd(y, n) = gcd(2a, n) once t is a unit, as
     * y = 2a/t); a point's y and d, and |x^2 - d y^2 - 1| */
    constant k[3];
    constant_init(&k[0], lucas  ? (i128)par[0] * par[0] - 4 * (i128)par[1]
                         : seed ? (i128)par[1] * par[1] - par[0] : 0, first);
    constant_init(&k[1], lucas ? par[1] : seed ? 2 * (i128)par[1] : par[2], first);
    constant_init(&k[2], lucas ? 0 : par[0], first);
    u128 conic = lucas || seed ? 0 : conic_size(par);
    for (u64 i = 0; i < count;
         i++, constant_step(&k[0]), constant_step(&k[1]), constant_step(&k[2])) {
        u64 n = first + 2 * i, g, p, q;
        int eps, sym;
        if (lucas) {
            g = constant_gcd(&k[0], n, &eps);
            if (eps == 0) {
                if (add_skip(skips, n, SKIP_JACOBI_ZERO, g) < 0)
                    goto fail;
                continue;
            }
            g = constant_gcd(&k[1], n, &sym);
            if (g > 1) {
                if (add_skip(skips, n, SKIP_GCD, g) < 0)
                    goto fail;
                continue;
            }
        } else {
            if (seed) {
                g = constant_gcd(&k[0], n, &sym);
                if (g != 1) {
                    if (add_skip(skips, n, SKIP_PHI_UNDEFINED, g) < 0)
                        goto fail;
                    continue;
                }
            } else if (!on_conic(par, conic, n)) {
                if (add_skip(skips, n, SKIP_NOT_ON_CONIC, 0) < 0)
                    goto fail;
                continue;
            }
            g = constant_gcd(&k[1], n, &sym);
            if (g > 1) {
                if (add_skip(skips, n, SKIP_GCD, g) < 0)
                    goto fail;
                continue;
            }
            g = constant_gcd(&k[2], n, &eps);
            if (eps == 0) {
                if (add_skip(skips, n, SKIP_JACOBI_ZERO, g) < 0)
                    goto fail;
                continue;
            }
        }
        /* a window is sieved at its first tested n, so a sparse search,
         * whose gates skip almost every n, skips most windows whole */
        if (i / SIEVE_WINDOW != window) {
            window = i / SIEVE_WINDOW;
            u64 start = window * SIEVE_WINDOW;
            sieve_window(rank, first + 2 * start,
                         count - start < SIEVE_WINDOW ? count - start : SIEVE_WINDOW, exact, flags);
        }
        unsigned char bits = flags[i % SIEVE_WINDOW];
        /* a prime p | n with w(p) not dividing k = n - eps: U_k != 0 mod p */
        if (bits & (eps > 0 ? RANK_NDIV_MINUS : RANK_NDIV_PLUS)) {
            detected++;
            continue;
        }
        if (exact && !(bits & SMALL_FACTOR)) {
            primes++;
            continue;
        }
        /* P and Q mod n, for the ladder only: no gate reads them */
        if (lucas) {
            p = reduce(par[0], n);
            q = reduce(par[1], n);
        } else {
            u64 x = reduce(par[1], n);  /* a point's x or a seed's a */
            if (seed) {  /* x = (a^2 + d)/t */
                u64 dn = reduce(par[0], n), a2 = mulmod(x, x, n);
                x = mulmod(addmod(a2, dn, n), invmod(submod(a2, dn, n), n), n);
            }
            p = addmod(x, x, n);
            q = 1;
        }
        mont_init(&grp.m[used], n);
        grp.p[used] = to_mont(p, &grp.m[used]);
        grp.q[used] = to_mont(q, &grp.m[used]);
        grp.k[used] = eps > 0 ? n - 1 : n + 1;
        if (++used == LANES) {
            if (decide_group(&grp, used, strong, hits, &primes, &detected) < 0)
                goto fail;
            used = 0;
        }
    }
    if (used > 0 && decide_group(&grp, used, strong, hits, &primes, &detected) < 0)
        goto fail;
    return Py_BuildValue("(NN(KnKn))", hits, skips, primes, PyList_GET_SIZE(hits),
                         detected, PyList_GET_SIZE(skips));
fail:
    Py_XDECREF(hits);
    Py_XDECREF(skips);
    return NULL;
}

static PyObject *
closed_form_sweep(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long a[7] = {0, 0, 0, 0, 0, 0, 10};  /* cap defaults to 10 */
    if (nargs != 6 && nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "closed_form_sweep() takes 6 or 7 arguments (%zd given)", nargs);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++) {
        a[i] = PyLong_AsLongLong(args[i]);
        if (a[i] == -1 && PyErr_Occurred())
            return NULL;
    }
    long long x_max = a[0], y_max = a[1], d_abs = a[2], k_max = a[3];
    long long n_lo = a[4], n_hi = a[5], cap = a[6];
    unsigned long long checked = 0;
    PyObject *bad = PyList_New(0);
    if (bad == NULL)
        return NULL;
    for (long long ni = n_lo % 2 ? n_lo : n_lo + 1; ni <= n_hi; ni += 2) {
        u64 n = (u64)ni;
        for (long long di = -d_abs; di <= d_abs; di++) {
            if (di == 0)
                continue;
            u64 dn = (u64)((di % ni + ni) % ni);
            for (long long xi = 0; xi <= x_max; xi++) {
                u64 xs = (u64)(xi % ni);
                u64 p = addmod(xs, xs, n);
                for (long long yi = 0; yi <= y_max; yi++) {
                    u64 ys = (u64)(yi % ni);
                    u64 q = submod(mulmod(xs, xs, n), mulmod(dn, mulmod(ys, ys, n), n), n);
                    u64 xk = 1, yk = 0, ua = 0, ub = 1, va = 2 % n, vb = p, t;
                    for (long long k = 0; k <= k_max; k++) {
                        checked++;
                        if (xk != half(va, n) || yk != mulmod(ys, ua, n)) {
                            PyObject *row = Py_BuildValue("(LLLLL)", xi, yi, di, k, ni);
                            if (row == NULL || PyList_Append(bad, row) < 0) {
                                Py_XDECREF(row);
                                Py_DECREF(bad);
                                return NULL;
                            }
                            Py_DECREF(row);
                            if (PyList_GET_SIZE(bad) >= cap)
                                goto done;
                        }
                        t = addmod(mulmod(xk, xs, n), mulmod(dn, mulmod(yk, ys, n), n), n);
                        yk = addmod(mulmod(xk, ys, n), mulmod(yk, xs, n), n);
                        xk = t;
                        t = submod(mulmod(p, ub, n), mulmod(q, ua, n), n);
                        ua = ub;
                        ub = t;
                        t = submod(mulmod(p, vb, n), mulmod(q, va, n), n);
                        va = vb;
                        vb = t;
                    }
                }
            }
        }
    }
done:
    return Py_BuildValue("(KN)", checked, bad);
}

static PyMethodDef methods[] = {
    {"jacobi", (PyCFunction)(void (*)(void))jacobi, METH_FASTCALL,
     "jacobi(a, n): Jacobi symbol (a / n) for 0 <= a < n, n odd positive."},
    {"lucas_uv", (PyCFunction)(void (*)(void))lucas_uv, METH_FASTCALL,
     "lucas_uv(p, q, k, n): (U_k, V_k) mod n by fast doubling; see the pure backend."},
    {"pell_pow", (PyCFunction)(void (*)(void))pell_pow, METH_FASTCALL,
     "pell_pow(x, y, d, e, n): Brahmagupta square-and-multiply; see the pure backend."},
    {"is_prime", (PyCFunction)(void (*)(void))is_prime, METH_FASTCALL,
     "is_prime(n): deterministic primality for n < 2**63; see the pure backend."},
    {"scan", (PyCFunction)(void (*)(void))scan, METH_FASTCALL,
     "scan(kind, strong, params, lo, hi): the \"lucas\" or \"pell\" test of a params\n"
     "record over every odd n in [lo, hi], for hi < 2**63 and parameters in signed\n"
     "64-bit range; returns (hits, skips, counts); see kernels.scan."},
    {"closed_form_sweep", (PyCFunction)(void (*)(void))closed_form_sweep, METH_FASTCALL,
     "closed_form_sweep(x_max, y_max, d_abs, k_max, n_lo, n_hi, cap=10): bulk\n"
     "power-vs-closed-form comparison; see the pure backend."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "pellucas._kernels_c",
    .m_doc = "Compiled modular kernels; mirrors _kernels_py for moduli below 2**63.",
    .m_size = -1,
    .m_methods = methods,
};

/* Fetch Skip and the skip reasons from _kernels_py; -1 with an exception set. */
static int
load_skip(void)
{
    PyObject *py = PyImport_ImportModule("pellucas._kernels_py");
    if (py == NULL)
        return -1;
    PyObject *type = PyObject_GetAttrString(py, "Skip");
    if (type != NULL && !(PyType_Check(type) &&
                          PyType_IsSubtype((PyTypeObject *)type, &PyTuple_Type))) {
        PyErr_SetString(PyExc_TypeError, "_kernels_py.Skip must be a tuple subclass");
        Py_CLEAR(type);
    }
    Py_XSETREF(skip_type, (PyTypeObject *)type);
    int rc = type != NULL ? 0 : -1;
    for (int code = 0; rc == 0 && code < SKIP_CODES; code++) {
        Py_XSETREF(skip_reasons[code], PyObject_GetAttrString(py, SKIP_REASON_NAMES[code]));
        if (skip_reasons[code] == NULL)
            rc = -1;
    }
    Py_DECREF(py);
    return rc;
}

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    if (load_skip() < 0)
        return NULL;
    if (sieve_count == 0)
        init_sieve_primes();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
