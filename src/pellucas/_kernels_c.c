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
 * lockstep too.  Of the skips, scan keeps what its caller keeps (see
 * kernels.scan): Skip rows, counts per reason in _kernels_py.REASONS order,
 * or JSON list items as one str; the module init fetches Skip and REASONS,
 * so the reasons are written once.  Per window of SIEVE_WINDOW odd n, the
 * gates run with the GIL held and the tested n (sieve, lanes, Miller-Rabin)
 * without it, into a C buffer of hits, so threads run those in parallel; a
 * window with no tested n keeps the GIL, as a handover would cost more.
 *
 * A sieve by small odd primes p decides most tested n before the ladder.
 * The lemma (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 35,
 * 1980): for p not dividing Q, p | U_k exactly when the rank of
 * apparition w(p), the least j >= 1 with p | U_j, divides k; and
 * w(p) | p - (D/p) when p does not divide 2QD.
 * On the paper's conic it is a group fact: mod p, x^2 - d y^2 = 1 under
 * the Brahmagupta product is a cyclic group of order p - (d/p), and
 * (x, y)^k = (V_k/2, y U_k) with p not dividing y has y U_k = 0 exactly
 * when (x, y)^k = (+-1, 0), so w(p) is the order of (x, y) modulo +-1.
 * So a composite n with a factor p and w(p) not dividing k = n - (D/n) has
 * U_k != 0 mod p, hence mod n: CompositeDetected, with no ladder.  At
 * its first tested n, the scan marks each window of SIEVE_WINDOW odd n
 * with the odd multiples m of the odd primes p below RANK_BOUND = 2^12
 * that have one other than p at or below hi, one bit for w(p) not
 * dividing m - 1 and one for m + 1; and, when hi < 2^40, with those of the
 * odd primes p <= isqrt(hi), a third bit for a small factor.  Every odd
 * composite n <= hi has such a factor, so in such a call an unmarked
 * tested n is prime, with neither ladder nor Miller-Rabin, and a marked n
 * above isqrt(hi) is composite: no tested n above isqrt(hi) runs
 * Miller-Rabin.  p itself takes no rank bit for its own k = p - (D/p),
 * which w(p) divides, and its small-factor bit sends it to the ladder,
 * which calls it prime: so the sieve need not step past it, and no offset
 * reaches p.  The cap at
 * isqrt(hi) keeps a call at small n from paying for the primes up to
 * 2^20.  Each rank is found as the order of a group element is: from
 * j = p - (D/p), each prime factor q of j is struck while p | U_{j/q}
 * (rank_of).  A rank is 0, and its prime marks nothing, where the gates
 * skip every multiple of p: where p divides a gate constant or the point
 * is off the conic mod p.  A memo of the last RANK_MEMOS tests, keyed by
 * the kind (Lucas, Pell seed or point) and the raw parameters, keeps them
 * from one call to the next, so a search, or two searches taking turns,
 * pay for them once.  The rank primes step through every window; each
 * larger prime, which hits a window at most once, waits in a bucket for
 * the window of its next odd multiple (a bucket sieve), so a window
 * touches only the primes that hit it.  Each thread carries each rank
 * prime's offset to its next odd multiple, that multiple mod w(p), and its
 * buckets from window to window and from call to call (the carry below),
 * so the blocks of a search scanned in order set each prime up once, not
 * once per window.  Against a sieve exact only below 2^32, which passed
 * every prime up to 2^16 over every window, this one read per odd n
 * 1.56-1.65x faster at 10^12 and 1.21-1.26x faster below 2^32 (Lucas P=3
 * and the seed D=6 a=4, block by block, one core of a 2-core Xeon); at
 * 10^12 a search of 20 blocks spends about a quarter of its time setting
 * up the 78,000 bucket primes.  A RANK_BOUND of 2^13 or 2^14 read 1-4%
 * faster at 10^12 than 2^12 with the narrower sieve, but set up the ranks
 * of a new test in 0.85 or 1.9 ms, against 0.45 ms.
 *
 * A test is its P and Q, which test_pq gives mod any odd m, and the
 * integers its gates read, fixed for the whole search.  In gate order: for
 * Lucas (D/n) with D = P^2 - 4Q, then gcd(Q, n); for a seed gcd(t, n) with
 * t = a^2 - d (phi defined), then gcd(2a, n), which is gcd(y, n) once t is
 * a unit, as y = 2a/t, then (d/n); for a point n | x^2 - d y^2 - 1
 * (on_conic), then gcd(y, n), then (d/n).  The scan computes these
 * constants once per call, in signed 128-bit arithmetic (into c, and the
 * conic's |x^2 - d y^2 - 1| by conic_size), and runs one chain of gates on
 * them: the first that fails names the skip, and the Jacobi gate's symbol
 * is eps.  It reads them per n with no 64-bit division.  Of a constant
 * c = +-2^e c' with c' odd and below 2^63 it holds r = n mod c', stepped
 * by 2 with n; then gcd(c, n) = gcd(c', r), as n is odd, and by quadratic
 * reciprocity for the Jacobi symbol (Crandall and Pomerance, Prime
 * Numbers, 2.3) (c/n) = +-(r/c'), with the sign read from n mod 8, c's
 * sign, e and c' mod 4.  Where c' < 64, two masks built once per call
 * hold, for every r, whether gcd(r, c') = 1 and whether (r/c') = -1.
 * c = 0 and a c' of 2^63 or more are reduced mod each n instead, and
 * n | x^2 - d y^2 - 1 fails outright where n exceeds its absolute value.
 * P and Q mod n, with a seed's inverse of t, are taken only for an n that
 * reaches a lane group: no gate reads them, and the sieve decides most n
 * first.
 *
 * Build in place with:  python setup.py build_ext --inplace
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
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

/* The scan's sieve, over windows of SIEVE_WINDOW odd n: rank bits from the
 * RANK_PRIMES odd primes below RANK_BOUND, and small-factor bits from the
 * LARGE_PRIMES odd primes below LARGE_BOUND, of which a call with hi below
 * LARGE_BOUND^2 = 2^40 takes those up to isqrt(hi).  Every odd composite
 * n <= hi has a prime factor up to isqrt(hi).  The first SMALL_PRIMES of
 * them, below SMALL_BOUND, are held in 16 bits. */
enum { RANK_BOUND = 1 << 12, RANK_PRIMES = 563, SMALL_BOUND = 1 << 16, SMALL_PRIMES = 6541,
       LARGE_BOUND = 1 << 20, LARGE_PRIMES = 82024, WINDOW_BITS = 10,
       SIEVE_WINDOW = 1 << WINDOW_BITS };

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

/* The odd primes below SMALL_BOUND, in order: the first RANK_PRIMES of them
 * are those below RANK_BOUND.  The first scan sets them, under the GIL, so
 * that a process that only imports the module (a single test from the CLI)
 * does not pay for them. */
static unsigned short sieve_primes[SMALL_PRIMES];

static void
init_sieve_primes(void)
{
    unsigned char composite[SMALL_BOUND / 2] = {0};  /* odd m at m / 2 */
    int count = 0;
    for (unsigned p = 3; p < SMALL_BOUND && count < SMALL_PRIMES; p += 2) {
        if (composite[p / 2])
            continue;
        sieve_primes[count++] = (unsigned short)p;
        for (unsigned m = p * p; m < SMALL_BOUND; m += 2 * p)
            composite[m / 2] = 1;
    }
}

/* The odd primes from SMALL_BOUND to LARGE_BOUND, sieve primes SMALL_PRIMES
 * on, each as half its gap from the one before (at most 57 below 2^20), in
 * 75 KB.  Only a call whose exact bound isqrt(hi) passes SMALL_BOUND
 * needs them, and the first such call sets them, under the GIL, by
 * sieving the odd n between the bounds with the odd primes below 2^10, a
 * bit per n, and reading the primes off each word; -1 with an exception
 * set where there is no memory. */
static unsigned char large_gaps[LARGE_PRIMES - SMALL_PRIMES];
static int large_gaps_set;

static int
init_large_gaps(void)
{
    enum { ODD = (LARGE_BOUND - SMALL_BOUND) / 2 };  /* the odd n = SMALL_BOUND + 1 + 2i */
    u64 *composite = calloc(ODD / 64, sizeof *composite);
    unsigned last = sieve_primes[SMALL_PRIMES - 1];
    int count = 0;
    if (composite == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (int j = 0; sieve_primes[j] < 1 << 10; j++) {
        unsigned p = sieve_primes[j], m = (SMALL_BOUND + p) / p * p;
        for (m += (m & 1) ? 0 : p; m < LARGE_BOUND; m += 2 * p)
            composite[(m - SMALL_BOUND) / 128] |= (u64)1 << ((m - SMALL_BOUND) / 2 % 64);
    }
    for (unsigned w = 0; w < ODD / 64; w++)
        for (u64 primes = ~composite[w]; primes && count < LARGE_PRIMES - SMALL_PRIMES;
             primes &= primes - 1) {
            unsigned n = SMALL_BOUND + 1 + 2 * (64 * w + (unsigned)__builtin_ctzll(primes));
            large_gaps[count++] = (unsigned char)((n - last) / 2);
            last = n;
        }
    free(composite);
    large_gaps_set = 1;
    return 0;
}

/* How many of the first `count` sieve primes are at most x. */
static int
primes_upto(u64 x, int count)
{
    int lo = 0;
    while (lo < count) {
        int mid = (lo + count) / 2;
        if (sieve_primes[mid] <= x)
            lo = mid + 1;
        else
            count = mid;
    }
    return lo;
}

/* floor(sqrt(x)), by Newton's method on integers */
static u64
isqrt(u64 x)
{
    u64 r = x, s = x / 2 + (x & 1);
    while (s < r) {
        r = s;
        s = (r + x / r) / 2;
    }
    return r;
}

/* The rank of apparition of the odd prime p < RANK_BOUND in U(P, Q), the
 * least j >= 1 with p | U_j, for P, Q < p and p not dividing QD.  As p | U_k
 * exactly when w(p) | k, and w(p) | p - (D/p), it is found as the order of
 * a group element is (Cohen, GTM 138, 1.4): from j = p - (D/p), strike each
 * prime factor q of j while p still divides U_{j/q}. */
static unsigned
rank_of(u64 P, u64 Q, u64 p)
{
    int eps;
    jacobi_gcd(submod(mulmod(P, P, p), mulmod(4, Q, p), p), p, &eps);
    u64 j = eps > 0 ? p - 1 : p + 1, rest = j, u, v;
    /* trial division by 2 and the odd primes: j <= RANK_BOUND, so every
     * factor of rest above sqrt(rest) is the one prime left */
    for (int i = -1; rest > 1; i++) {
        u64 q = i < 0 ? 2 : sieve_primes[i];
        if (q * q > rest)
            q = rest;
        if (rest % q)
            continue;
        while (rest % q == 0)
            rest /= q;
        while (j % q == 0 && (lucas_core(P, Q, j / q, p, &u, &v), u == 0))
            j /= q;
    }
    return (unsigned)j;
}

/* P and Q of a scan's test mod the odd m: the Lucas (P, Q), or the Pell
 * P = 2x, Q = 1, with a point's x or a seed's x = (a^2 + d)/(a^2 - d), for
 * an m prime to a^2 - d. */
static void
test_pq(int lucas, int seed, const long long *par, u64 m, u64 *P, u64 *Q)
{
    u64 x = reduce(par[1], m);  /* Lucas Q, a seed's a or a point's x */
    if (lucas) {
        *P = reduce(par[0], m);
        *Q = x;
        return;
    }
    if (seed) {
        u64 d = reduce(par[0], m), a2 = mulmod(x, x, m);
        x = mulmod(addmod(a2, d, m), invmod(submod(a2, d, m), m), m);
    }
    *P = addmod(x, x, m);
    *Q = 1;
}

/* The rank of the odd prime p for a scan's test, from test_pq's (P, Q)
 * mod p.  0 where the gates skip every multiple of p: where p divides one
 * of the gate constants c, or the point is off the conic mod p. */
static unsigned
test_rank(int lucas, int seed, const long long *par, const i128 *c, u128 conic, u64 p)
{
    u64 P, Q;
    if (c[0] % (i128)p == 0 || c[1] % (i128)p == 0 || c[2] % (i128)p == 0 ||
        !on_conic(par, conic, p))
        return 0;
    test_pq(lucas, seed, par, p, &P, &Q);
    return rank_of(P, Q, p);
}

/* A scan's test as the memo and the carry key it: its kind (Lucas, Pell
 * seed or Pell point) and its raw parameters, the unused ones 0. */
typedef struct {
    int lucas, seed;
    long long par[3];
} test_key;

/* The ranks of the last RANK_MEMOS tests scanned, each keyed by its test,
 * for the first `filled` rank primes, and read and written only under the
 * GIL: a search scans block after block with one test, or two searches
 * take turns, and each pays for its ranks once.  A call asks only for the
 * primes with an odd multiple other than p at or below its hi. */
enum { RANK_MEMOS = 8 };
static struct {
    test_key key;
    int filled;
    unsigned short rank[RANK_PRIMES];
} rank_memo[RANK_MEMOS];
static int rank_memo_next;  /* the entry the next new test takes */

static const unsigned short *
test_ranks(const test_key *key, const i128 *c, u128 conic, int count)
{
    int e = 0;
    while (e < RANK_MEMOS && memcmp(&rank_memo[e].key, key, sizeof *key) != 0)
        e++;
    if (e == RANK_MEMOS) {
        e = rank_memo_next;
        rank_memo_next = (e + 1) % RANK_MEMOS;
        rank_memo[e].key = *key;
        rank_memo[e].filled = 0;
    }
    for (int j = rank_memo[e].filled; j < count; j++)
        rank_memo[e].rank[j] = (unsigned short)test_rank(key->lucas, key->seed, key->par, c,
                                                         conic, sieve_primes[j]);
    if (rank_memo[e].filled < count)
        rank_memo[e].filled = count;
    return rank_memo[e].rank;
}

/* A window's marks on an odd n: that some prime p | n has its rank w(p)
 * not dividing n - 1 (or n + 1), and, below 2^40, that n has a factor up
 * to isqrt(hi), which may be n itself. */
enum { RANK_NDIV_MINUS = 1, RANK_NDIV_PLUS = 2, SMALL_FACTOR = 4 };

/* The sieve's state, carried from window to window and from call to call
 * by each thread alone, in two tiers: the rank primes, below RANK_BOUND,
 * step through each window, and each larger prime, which hits a window at
 * most once, waits in a bucket for the window of its next odd multiple.
 * For the first `primes` sieve primes p of nonzero rank w, off[j] < p is
 * the count of odd n from `next` to p's next odd multiple m,
 * res[j] = m mod w and step[j] = 2p mod w; the buckets hold the sieve
 * primes from RANK_PRIMES to `large` (none where `large` is 0).
 * A window at `next` with the same test goes on from them, and sets up only
 * the primes the last window did not use; any other window empties the
 * buckets and sets up all of its primes, a rank prime with three
 * divisions (one 32-bit below 2^32), a bucket prime with a quotient
 * (buckets_add).  So a search that scans its blocks in order sets each
 * prime up once, not once per window, as a segmented sieve does
 * (Oliveira e Silva, Herzog and Pardi, Math. Comp. 83, 2014).  About
 * 3.5 KB per thread, and the thread's buckets. */
static _Thread_local struct {
    test_key key;
    u64 next;
    int primes, large;
    unsigned short off[RANK_PRIMES], res[RANK_PRIMES], step[RANK_PRIMES];
} carry;
_Static_assert(RANK_BOUND <= 1 << (8 * sizeof carry.off[0]), "an offset below p fits carry.off");

/* The bucket sieve (Oliveira e Silva, Herzog and Pardi, 2014): windows of
 * SIEVE_WINDOW odd n on a grid from `origin`, the odd index n >> 1 at
 * which the buckets were set up, and a ring of BUCKET_RING buckets, bucket
 * c mod BUCKET_RING for window c of the grid.  A prime p < LARGE_BOUND
 * waits in the bucket of its next odd multiple as one word: p << WINDOW_BITS
 * and the multiple's place in that window.  Every word lies within
 * 2 + LARGE_BOUND / SIEVE_WINDOW windows of the one being sieved, so the
 * ring never wraps onto a word.  A bucket is a list of chunks of
 * BUCKET_CHUNK words: the one being filled, with `fill` words, then full
 * ones.  They come from one pool per thread, with room for every bucket
 * prime in full chunks, a partial chunk in every bucket and the list
 * being emptied: 0.6 MB of address space, of which a thread touches only
 * the chunks it fills (about 0.4 MB at 2^40, 30 KB below 2^32).  The pool
 * is freed with its thread. */
enum { BUCKET_RING = 2048, BUCKET_CHUNK = 31,
       BUCKET_CHUNKS = (LARGE_PRIMES - RANK_PRIMES) / BUCKET_CHUNK + BUCKET_RING + 4 };
_Static_assert(BUCKET_RING > 2 + LARGE_BOUND / SIEVE_WINDOW, "the ring outruns every prime");
_Static_assert((u64)LARGE_BOUND << WINDOW_BITS <= (u64)1 << 32, "a bucket word fits 32 bits");
typedef struct {
    uint32_t next;  /* the chunk after this one in its bucket; 0 ends it */
    uint32_t word[BUCKET_CHUNK];
} bucket_chunk;
typedef struct {
    u64 origin, last;                 /* last: the largest prime in a bucket */
    uint32_t free, fresh;             /* freed chunks (a list); the first never used */
    uint32_t head[BUCKET_RING];       /* each bucket's chunk being filled; 0 for none */
    unsigned char fill[BUCKET_RING];  /* its words; BUCKET_CHUNK where none */
    bucket_chunk pool[BUCKET_CHUNKS]; /* pool[0] is never used */
} buckets;

static pthread_key_t buckets_key;  /* each thread's buckets, freed as it ends */

/* The calling thread's buckets, made at its first call that needs them;
 * NULL with an exception set where there is no memory.  Under the GIL. */
static buckets *
thread_buckets(void)
{
    buckets *b = pthread_getspecific(buckets_key);
    if (b == NULL) {
        b = malloc(sizeof *b);
        if (b == NULL || pthread_setspecific(buckets_key, b) != 0) {
            free(b);
            PyErr_NoMemory();
            return NULL;
        }
    }
    return b;
}

static void
buckets_empty(buckets *b, u64 origin)
{
    b->origin = origin;
    b->free = 0;
    b->fresh = 1;
    memset(b->head, 0, sizeof b->head);
    memset(b->fill, BUCKET_CHUNK, sizeof b->fill);
}

/* Put p in the bucket of the window of `at`, p's next odd multiple on the
 * grid. */
static inline void
bucket_put(buckets *b, u64 p, u64 at)
{
    unsigned s = (unsigned)(at >> WINDOW_BITS) & (BUCKET_RING - 1);
    if (b->fill[s] == BUCKET_CHUNK) {
        uint32_t chunk = b->free ? b->free : b->fresh++;
        if (chunk == b->free)
            b->free = b->pool[chunk].next;
        b->pool[chunk].next = b->head[s];
        b->head[s] = chunk;
        b->fill[s] = 0;
    }
    uint32_t word = (uint32_t)(p << WINDOW_BITS | (at & (SIEVE_WINDOW - 1)));
    b->pool[b->head[s]].word[b->fill[s]++] = word;
}

/* Put the sieve primes from *count on, up to root, in the buckets of their
 * first odd multiples at or after the odd index x < 2^40.  The odd
 * multiples of p have the odd indices p t + h, h = (p - 1) / 2, and the
 * least at or after x has t = floor((x + h) / p).  That quotient is taken
 * in double precision, with no integer division: x + h < 2^53 and p are
 * exact, and a rounded quotient is within 2^-25 of the true one, never
 * below it, so its integer part is t or t + 1, and one step puts it
 * right.  A 64-bit division per prime read 2.5x slower. */
static void
buckets_add(buckets *b, int *count, u64 root, u64 x)
{
    u64 p = b->last;
    int j = *count, end = root <= SMALL_BOUND ? SMALL_PRIMES : LARGE_PRIMES;
    for (; j < end; j++) {
        u64 next = j < SMALL_PRIMES ? sieve_primes[j] : p + 2 * (u64)large_gaps[j - SMALL_PRIMES];
        if (next > root)
            break;
        p = next;
        /* signed conversions: SSE2 has no unsigned ones */
        u64 h = p / 2, t = (u64)(int64_t)((double)(int64_t)(x + h) / (double)(int64_t)p);
        u64 at = t * p + h;
        at -= (at >= x + p ? p : 0) + b->origin;
        bucket_put(b, p, at);
    }
    *count = j;
    b->last = p;
}

/* Mark SMALL_FACTOR on each odd n of the window of `width` odd n at the odd
 * index x that a prime in the buckets divides, and move each such prime on
 * to the bucket of its next odd multiple.  A window on the grid empties
 * one bucket; another one, as after a call of an odd size, empties the two
 * it meets and puts back the words past its end. */
static void
buckets_sieve(buckets *b, u64 x, unsigned width, unsigned char *flags)
{
    u64 a = x - b->origin, end = a + width;
    for (u64 c = a >> WINDOW_BITS; c << WINDOW_BITS < end; c++) {
        unsigned s = (unsigned)c & (BUCKET_RING - 1), words = b->fill[s];
        uint32_t chunk = b->head[s];
        b->head[s] = 0;
        b->fill[s] = BUCKET_CHUNK;
        while (chunk) {
            for (unsigned i = 0; i < words; i++) {
                uint32_t word = b->pool[chunk].word[i];
                u64 p = word >> WINDOW_BITS, at = c << WINDOW_BITS | (word & (SIEVE_WINDOW - 1));
                if (at >= end) {
                    bucket_put(b, p, at);
                    continue;
                }
                flags[at - a] |= SMALL_FACTOR;
                bucket_put(b, p, at + p);
            }
            uint32_t next = b->pool[chunk].next;
            b->pool[chunk].next = b->free;
            b->free = chunk;
            chunk = next;
            words = BUCKET_CHUNK;
        }
    }
}

/* Mark the odd n = w0 + 2i, i < width, with each odd multiple m of the
 * first `ranked` sieve primes, by their ranks: RANK_NDIV_MINUS where
 * w(p) does not divide m - 1, RANK_NDIV_PLUS where it does not divide
 * m + 1; and of the first `small` with SMALL_FACTOR, and, with buckets b,
 * of the larger primes up to root too.  A prime of rank 0
 * marks nothing, in this window or any later one of its test: the gates
 * skip every multiple of it, so a tested composite n still has its least
 * factor marked.  m's offset and m mod w(p) step with m, with no division
 * per mark, and carry over to the next window. */
static void
sieve_window(const test_key *key, const unsigned short *rank, int ranked, int small, u64 root,
             buckets *b, u64 w0, unsigned width, unsigned char *flags)
{
    int used = ranked > small ? ranked : small, j = 0;
    int same = carry.next == w0 && memcmp(&carry.key, key, sizeof *key) == 0;
    if (same)
        j = carry.primes < used ? carry.primes : used;
    else
        carry.key = *key;
    for (; j < used; j++) {
        if (j < ranked && rank[j] == 0)
            continue;
        /* the least multiple m >= w0, with a 32-bit division below 2^32 */
        u64 p = sieve_primes[j], r = w0 >> 32 ? w0 % p : (uint32_t)w0 % (uint32_t)p;
        u64 m = r ? w0 + p - r : w0;
        if ((m & 1) == 0)
            m += p;
        carry.off[j] = (unsigned short)((m - w0) >> 1);
        if (j < ranked) {
            carry.res[j] = (unsigned short)(m % rank[j]);
            carry.step[j] = (unsigned short)((uint32_t)(2 * p) % rank[j]);
        }
    }
    memset(flags, 0, width);
    for (j = 0; j < used; j++) {
        unsigned w = j < ranked ? rank[j] : 0;
        if (j < ranked && w == 0)
            continue;
        unsigned p = sieve_primes[j], i = carry.off[j];
        unsigned char mark = j < small ? SMALL_FACTOR : 0;
        if (w) {
            unsigned r = carry.res[j], step = carry.step[j];
            for (; i < width; i += p) {
                flags[i] |= (unsigned char)(mark | (r != 1) * RANK_NDIV_MINUS |
                                            (r != w - 1) * RANK_NDIV_PLUS);
                r += step;
                if (r >= w)
                    r -= w;
            }
            carry.res[j] = (unsigned short)r;
        } else {
            for (; i < width; i += p)
                flags[i] |= mark;
        }
        carry.off[j] = (unsigned short)(i - width);
    }
    if (b) {
        if (!same || carry.large == 0) {
            buckets_empty(b, w0 >> 1);
            carry.large = RANK_PRIMES;
        }
        buckets_add(b, &carry.large, root, w0 >> 1);
        buckets_sieve(b, w0 >> 1, width, flags);
    } else {
        carry.large = 0;
    }
    carry.next = w0 + 2 * (u64)width;
    carry.primes = used;
}

enum { SKIP_JACOBI_ZERO, SKIP_GCD, SKIP_PHI_UNDEFINED, SKIP_NOT_ON_CONIC, SKIP_CODES };
/* What scan keeps of its skips: Skip rows, counts per skip code, or JSON text. */
enum { KEEP_ROWS, KEEP_REASONS, KEEP_JSON, KEEPS };

/* _kernels_py.Skip and its REASONS, one per skip code, set by the module
 * init and held for the life of the process; with each reason's text, for
 * the JSON writer, and the most bytes that writer puts for one skip. */
static PyTypeObject *skip_type;
static PyObject *skip_reasons;
static const char *reason_text[SKIP_CODES];
static size_t reason_len[SKIP_CODES], json_item_max;

/* Copy len bytes to out, or a string literal; each gives the end. */
#define PUT_BYTES(out, bytes, len) ((char *)memcpy(out, bytes, len) + (len))
#define PUT(out, literal) PUT_BYTES(out, literal, sizeof literal - 1)

static char *
put_u64(char *out, u64 v)
{
    char digits[20], *d = digits + 20;
    do
        *--d = (char)('0' + v % 10);
    while (v /= 10);
    return PUT_BYTES(out, d, (size_t)(digits + 20 - d));
}

/* Write a skip as a JSON list item after ", ", with json.dumps's bytes (a
 * reason is a plain ASCII word); factor 0 stands for null. */
static char *
put_json_item(char *out, u64 n, int code, u64 factor)
{
    out = put_u64(PUT(out, ", {\"n\": "), n);
    out = PUT_BYTES(PUT(out, ", \"reason\": \""), reason_text[code], reason_len[code]);
    out = PUT(out, "\", \"factor\": ");
    out = factor ? put_u64(out, factor) : PUT(out, "null");
    return PUT(out, "}");
}

/* Append Skip(n, reason, factor) to skips; factor 0 stands for None.  The
 * row is allocated as the tuple subclass it is, after its items, as
 * CPython's structseq does, with no call into Skip.__new__.  It holds an
 * int, a str and an int or None, so it can be in no cycle: it stays out
 * of the collector, as a plain tuple of atoms leaves it at its first
 * collection (a subclass's never does), and PyObject_GC_NewVar, unlike
 * tp_alloc, neither zeroes it nor tracks it.  Tracked, every collection
 * that the scan's allocations set off would traverse it. */
static int
add_skip(PyObject *skips, u64 n, int code, u64 factor)
{
    PyObject *pn = PyLong_FromUnsignedLongLong(n);
    PyObject *pf = factor ? PyLong_FromUnsignedLongLong(factor) : Py_NewRef(Py_None);
    PyObject *row = pn && pf ? (PyObject *)PyObject_GC_NewVar(PyTupleObject, skip_type, 3) : NULL;
    if (row == NULL) {
        Py_XDECREF(pn);
        Py_XDECREF(pf);
        return -1;
    }
    PyTuple_SET_ITEM(row, 0, pn);
    PyTuple_SET_ITEM(row, 1, Py_NewRef(PyTuple_GET_ITEM(skip_reasons, code)));
    PyTuple_SET_ITEM(row, 2, pf);
    int rc = PyList_Append(skips, row);
    Py_DECREF(row);
    return rc;
}

/* Decide the first `used` lanes of g, in n order, and pad the rest with
 * copies of lane 0: count each prime and each detected composite, and
 * add each pseudoprime to hit[*hits].  In an exact call (root != 0) a
 * lane has a prime factor up to root, so an n above root is composite,
 * with no Miller-Rabin. */
static void
decide_group(group *g, int used, int strong, u64 root, u64 *hit, unsigned *hits,
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
        else if ((root == 0 || n <= root) && is_prime_mont(m, 0))
            (*primes)++;
        else if (!strong || v[l] == addmod(m->one, m->one, n))
            hit[(*hits)++] = n;
        else
            (*detected)++;
    }
}

/* obj's index among the names; -1 for any other object, also a non-str */
static int
name_index(PyObject *obj, const char *const *names, int count)
{
    for (int j = 0; PyUnicode_Check(obj) && j < count; j++)
        if (PyUnicode_CompareWithASCIIString(obj, names[j]) == 0)
            return j;
    return -1;
}

static PyObject *
scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char *const kinds[] = {"lucas", "pell"}, *const keeps[] = {"rows", "reasons",
                                                                            "json"};
    long long par[3] = {0, 0, 0};
    u64 lo, hi;
    if (nargs != 5 && nargs != 6) {
        PyErr_Format(PyExc_TypeError, "scan() takes 5 or 6 arguments (%zd given)", nargs);
        return NULL;
    }
    int lucas = name_index(args[0], kinds, 2) == 0;
    if (!lucas && name_index(args[0], kinds, 2) < 0) {
        PyErr_Format(PyExc_ValueError, "kind must be 'lucas' or 'pell', got %R", args[0]);
        return NULL;
    }
    int keep = nargs == 6 ? name_index(args[5], keeps, KEEPS) : KEEP_ROWS;
    if (keep < 0) {
        PyErr_Format(PyExc_ValueError, "keep must be 'rows', 'reasons' or 'json', got %R", args[5]);
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

    PyObject *hits = PyList_New(0), *skips = PyList_New(0), *rest, *result = NULL;
    unsigned long long primes = 0, detected = 0, reasons[SKIP_CODES] = {0};
    char *json = NULL;  /* the JSON text: len bytes */
    size_t len = 0;
    if (hits == NULL || skips == NULL)
        goto done;
    /* count the odd n rather than step past hi, which may be 2**63 - 1 */
    u64 first = lo | 1;
    u64 count = hi >= first ? (hi - first) / 2 + 1 : 0;
    /* the constants the gates read, in gate order (see the header); the
     * slot a test does not use holds 1, which every n is prime to */
    i128 c[3] = {lucas  ? (i128)par[0] * par[0] - 4 * (i128)par[1]
                 : seed ? (i128)par[1] * par[1] - par[0] : 1,
                 lucas ? par[1] : seed ? 2 * (i128)par[1] : par[2],
                 lucas ? 1 : par[0]};
    u128 conic = lucas || seed ? 0 : conic_size(par);
    /* the sieve's primes: for ranks those with an odd multiple other than
     * p at or below hi, and for a small factor those up to isqrt(hi), which
     * make the call exact */
    if (sieve_primes[0] == 0)
        init_sieve_primes();
    u64 root = hi < (u64)LARGE_BOUND * LARGE_BOUND ? isqrt(hi) : 0;
    int ranked = primes_upto(hi / 3, RANK_PRIMES), small = primes_upto(root, RANK_PRIMES);
    /* the primes above RANK_BOUND up to root go in the thread's buckets,
     * those above SMALL_BOUND from the large gaps */
    buckets *b = NULL;
    if (root > SMALL_BOUND && !large_gaps_set && init_large_gaps() < 0)
        goto done;
    if (root > RANK_BOUND && (b = thread_buckets()) == NULL)
        goto done;
    test_key key = {lucas, seed, {par[0], par[1], par[2]}};
    unsigned short rank[RANK_PRIMES];  /* a copy: the memo is safe only under the GIL */
    memcpy(rank, test_ranks(&key, c, conic, ranked), (size_t)ranked * sizeof *rank);
    constant k[3];
    for (int j = 0; j < 3; j++)
        constant_init(&k[j], c[j], first);
    /* a window's tested n, each as its offset in the window and the sign
     * of eps (2 offset + 1 for eps = 1), and its hits */
    unsigned short test[SIEVE_WINDOW];
    u64 hit[SIEVE_WINDOW];
    for (u64 start = 0; start < count; start += SIEVE_WINDOW) {
        u64 end = count - start < SIEVE_WINDOW ? count : start + SIEVE_WINDOW;
        unsigned tested = 0, window_hits = 0;
        if (keep == KEEP_JSON) {
            char *grown = PyMem_Realloc(json, len + (end - start) * json_item_max);
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            json = grown;
        }
        for (u64 i = start; i < end;
             i++, constant_step(&k[0]), constant_step(&k[1]), constant_step(&k[2])) {
            u64 n = first + 2 * i, g = 0;
            int code = SKIP_CODES, eps = 0, sym;
            /* the gates in decide's order, the first that fails giving the
             * skip; a point reaches the conic gate with no factor in g */
            if (lucas && (g = constant_gcd(&k[0], n, &eps), eps == 0))
                code = SKIP_JACOBI_ZERO;
            else if (seed && (g = constant_gcd(&k[0], n, &sym)) > 1)
                code = SKIP_PHI_UNDEFINED;
            else if (!on_conic(par, conic, n))
                code = SKIP_NOT_ON_CONIC;
            else if ((g = constant_gcd(&k[1], n, &sym)) > 1)
                code = SKIP_GCD;
            else if (!lucas && (g = constant_gcd(&k[2], n, &eps), eps == 0))
                code = SKIP_JACOBI_ZERO;
            if (code == SKIP_CODES)
                test[tested++] = (unsigned short)(2 * (i - start) + (eps > 0));
            else if (keep == KEEP_JSON)
                len = (size_t)(put_json_item(json + len, n, code, g) - json);
            else if (keep == KEEP_REASONS)
                reasons[code]++;
            else if (add_skip(skips, n, code, g) < 0)
                goto done;
        }
        /* the sieve, lanes and Miller-Rabin of the tested n touch no Python
         * object; a sparse search, whose gates skip almost every n, skips
         * most windows whole */
        if (tested == 0)
            continue;
        Py_BEGIN_ALLOW_THREADS
        unsigned char flags[SIEVE_WINDOW];
        group grp;
        int used = 0;  /* the lanes of grp filled so far */
        sieve_window(&key, rank, ranked, small, root, b, first + 2 * start,
                     (unsigned)(end - start), flags);
        for (unsigned j = 0; j < tested; j++) {
            unsigned bits = flags[test[j] >> 1], plus = test[j] & 1;
            u64 n = first + 2 * (start + (test[j] >> 1)), p, q;
            /* a prime p | n with w(p) not dividing k = n - eps: U_k != 0 mod p */
            if (bits & (plus ? RANK_NDIV_MINUS : RANK_NDIV_PLUS)) {
                detected++;
                continue;
            }
            if (root && !(bits & SMALL_FACTOR)) {
                primes++;
                continue;
            }
            /* P and Q mod n, for the ladder only: no gate reads them */
            test_pq(lucas, seed, par, n, &p, &q);
            mont_init(&grp.m[used], n);
            grp.p[used] = to_mont(p, &grp.m[used]);
            grp.q[used] = to_mont(q, &grp.m[used]);
            grp.k[used] = plus ? n - 1 : n + 1;
            if (++used == LANES) {
                decide_group(&grp, used, strong, root, hit, &window_hits, &primes, &detected);
                used = 0;
            }
        }
        if (used > 0)
            decide_group(&grp, used, strong, root, hit, &window_hits, &primes, &detected);
        Py_END_ALLOW_THREADS
        for (unsigned j = 0; j < window_hits; j++) {
            PyObject *item = PyLong_FromUnsignedLongLong(hit[j]);
            int rc = item ? PyList_Append(hits, item) : -1;
            Py_XDECREF(item);
            if (rc < 0)
                goto done;
        }
    }
    unsigned long long *r = reasons;
    rest = keep == KEEP_ROWS      ? Py_NewRef(skips)
           : keep == KEEP_REASONS ? Py_BuildValue("(KKKK)", r[0], r[1], r[2], r[3])
                                  : PyUnicode_FromStringAndSize(json ? json : "", (Py_ssize_t)len);
    /* every n the gates did not skip was counted as prime, hit or detected */
    u64 pseudo = (u64)PyList_GET_SIZE(hits);
    if (rest != NULL)
        result = Py_BuildValue("(ON(KKKK))", hits, rest, primes, pseudo, detected,
                               count - primes - pseudo - detected);
done:
    Py_XDECREF(hits);
    Py_XDECREF(skips);
    PyMem_Free(json);
    return result;
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
     "scan(kind, strong, params, lo, hi, keep=\"rows\"): the \"lucas\" or \"pell\" test of\n"
     "a params record over every odd n in [lo, hi], for hi < 2**63 and parameters in\n"
     "signed 64-bit range; returns (hits, rest, counts); see kernels.scan."},
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

/* Fetch Skip and REASONS from _kernels_py; -1 with an exception set. */
static int
load_skip(void)
{
    PyObject *py = PyImport_ImportModule("pellucas._kernels_py");
    if (py == NULL)
        return -1;
    Py_XSETREF(skip_type, (PyTypeObject *)PyObject_GetAttrString(py, "Skip"));
    Py_XSETREF(skip_reasons, PyObject_GetAttrString(py, "REASONS"));
    Py_DECREF(py);
    if (skip_type == NULL || skip_reasons == NULL)
        return -1;
    if (!(PyType_Check(skip_type) && PyType_IsSubtype(skip_type, &PyTuple_Type) &&
          PyTuple_Check(skip_reasons) && PyTuple_GET_SIZE(skip_reasons) == SKIP_CODES)) {
        PyErr_SetString(PyExc_TypeError, "_kernels_py needs a tuple subclass Skip and 4 REASONS");
        return -1;
    }
    /* n and the factor have at most 20 digits each */
    json_item_max = sizeof ", {\"n\": , \"reason\": \"\", \"factor\": }" - 1 + 2 * 20;
    size_t fixed = json_item_max;
    for (int code = 0; code < SKIP_CODES; code++) {
        Py_ssize_t len;
        reason_text[code] = PyUnicode_AsUTF8AndSize(PyTuple_GET_ITEM(skip_reasons, code), &len);
        if (reason_text[code] == NULL)
            return -1;
        reason_len[code] = (size_t)len;
        if (json_item_max < fixed + reason_len[code])
            json_item_max = fixed + reason_len[code];
    }
    return 0;
}

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    static int key_made;
    if (!key_made && pthread_key_create(&buckets_key, free) != 0) {
        PyErr_SetString(PyExc_OSError, "no thread-specific key for the sieve's buckets");
        return NULL;
    }
    key_made = 1;
    if (load_skip() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
