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
 * Build in place with:  python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;
typedef unsigned __int128 u128;

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

static int
jacobi_u64(u64 a, u64 n)
{
    u64 t;
    int result = 1;
    while (a) {
        while ((a & 1) == 0) {
            a >>= 1;
            t = n & 7;
            if (t == 3 || t == 5)
                result = -result;
        }
        t = a;
        a = n;
        n = t;
        if ((a & 3) == 3 && (n & 3) == 3)
            result = -result;
        a %= n;
    }
    return n == 1 ? result : 0;
}

static PyObject *
jacobi(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 v[2];
    if (args_u64("jacobi", args, nargs, 2, v) < 0)
        return NULL;
    return PyLong_FromLong(jacobi_u64(v[0], v[1]));
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

static u64
gcd_u64(u64 a, u64 b)
{
    while (b) {
        u64 t = a % b;
        a = b;
        b = t;
    }
    return a;
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

/* v mod n for a signed v and 0 < n < 2**63 */
static inline u64
reduce(long long v, u64 n)
{
    long long r = v % (long long)n;
    return r < 0 ? (u64)(r + (long long)n) : (u64)r;
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
    long long par[3];
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
    for (u64 i = 0; i < count; i++) {
        u64 n = first + 2 * i, p, q, dn, g;
        int eps;
        if (lucas) {
            p = reduce(par[0], n);
            q = reduce(par[1], n);
            dn = submod(mulmod(p, p, n), mulmod(4 % n, q, n), n);
            eps = jacobi_u64(dn, n);
            if (eps == 0) {
                if (add_skip(skips, n, SKIP_JACOBI_ZERO, gcd_u64(dn, n)) < 0)
                    goto fail;
                continue;
            }
            g = gcd_u64(q, n);
            if (g > 1) {
                if (add_skip(skips, n, SKIP_GCD, g) < 0)
                    goto fail;
                continue;
            }
        } else {
            u64 x, y;
            dn = reduce(par[0], n);
            if (seed) {
                u64 a = reduce(par[1], n), a2 = mulmod(a, a, n);
                u64 t = submod(a2, dn, n);
                g = gcd_u64(t, n);
                if (g != 1) {
                    if (add_skip(skips, n, SKIP_PHI_UNDEFINED, g) < 0)
                        goto fail;
                    continue;
                }
                u64 inv = invmod(t, n);
                x = mulmod(addmod(a2, dn, n), inv, n);
                y = mulmod(addmod(a, a, n), inv, n);
            } else {
                x = reduce(par[1], n);
                y = reduce(par[2], n);
                if (submod(mulmod(x, x, n), mulmod(dn, mulmod(y, y, n), n), n) != 1) {
                    if (add_skip(skips, n, SKIP_NOT_ON_CONIC, 0) < 0)
                        goto fail;
                    continue;
                }
            }
            g = gcd_u64(y, n);
            if (g > 1) {
                if (add_skip(skips, n, SKIP_GCD, g) < 0)
                    goto fail;
                continue;
            }
            eps = jacobi_u64(dn, n);
            if (eps == 0) {
                if (add_skip(skips, n, SKIP_JACOBI_ZERO, gcd_u64(dn, n)) < 0)
                    goto fail;
                continue;
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
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
