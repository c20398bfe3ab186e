"""The rewriting engine: normal forms of words in the generators x_{i,j}.

Normal forms are built one letter at a time: for a canonical word t and a
generator g, t g = low (high g), where low holds the letters of t that are
<= g and high the rest, and only high g needs rewriting.  No switching rule
produces a letter outside the range of the pair it rewrites, so every word
of nf(high g) has letters >= g and low stays in front.  _insert memoizes
nf(high g).  The engine has two entries: _times_words, whose one loop
(_times_packed) inserts whole words for every product (the non-canonical
constructor, star and antipode, the Source scheme's eta prefixes and D_q
step; quantum minors are written canonical and never reach it), and
_coproduct_legs, which grows both legs of a coproduct one letter at a time.
Both take and return Laurent coefficients with integer coefficients, as
dicts v-exponent -> integer.

Inside the engine a coefficient is one pair (a, N) (Kronecker
substitution): a bounds its exponents from below and
N = sum_e c_e 2^(B (e - a)) holds the coefficients as signed base-2^B
digits.  Multiplying by v^k moves a, a product is one integer multiply and
a sum one shift and one add, all of them exact whatever B is.  Only reading
the digits back, or testing N for zero, needs every |c_e| < 2^(B - 1), so
each computation also returns a bound on the total |coefficient| of its
results that also covers every intermediate one, and _certified decodes
only under that bound, rerunning the computation at a wider B otherwise.
A bound that is still below 2^(B - 1) certifies the digits it covers, so it
can be replaced by their exact total (_tightened): each memoized insert
that splits off words carries the exact total of its result, and a running
bound is tightened when it passes 2^(B - 2).  Without that, the bound for
x33^10 x22^10 x11^10 has 132 bits where the coefficients total 37.
"""

from bisect import bisect_right
from functools import cache


_WIDTH = 64


def _pack(c, B):
    """(a, N) of a nonzero Laurent coefficient c at digit width B."""
    a = min(c)
    N = 0
    for e, x in c.items():
        N += x << B * (e - a)
    return a, N


def _digits(N, B):
    """The signed base-2^B digits of N, lowest first, for an N whose
    digits are all below 2^(B - 1) in absolute value."""
    mask, half, full = (1 << B) - 1, 1 << (B - 1), 1 << B
    while N:
        d = N & mask
        if d >= half:
            d -= full
        N = (N - d) >> B
        yield d


def _mass(c):
    """The total |coefficient| of a Laurent coefficient."""
    return sum(abs(x) for x in c.values())


def _tightened(terms, bound, B):
    """bound on the total |coefficient| of packed terms at width B, or,
    when it is below 2^(B - 1) and so every digit is exact, the total
    |digit|, which is no larger."""
    if bound < 1 << (B - 1):
        return sum(abs(d) for _a, N in terms.values() for d in _digits(N, B))
    return bound


def _certified(run):
    """The result of run(B) -> (dict key -> packed coefficient, mass bound),
    decoded to a dict key -> Laurent coefficient: run at B = 64 and, while
    the bound is not below 2^(B - 1), again at the width that bound would
    certify.  A rerun may widen again, since its bounds are tightened at
    other points; each width exceeds the last, and the untightened bound is
    a width at which every run certifies."""
    B = _WIDTH
    while True:
        out, bound = run(B)
        if bound < 1 << (B - 1):
            return {k: {a + i: d for i, d in enumerate(_digits(N, B)) if d}
                    for k, (a, N) in out.items()}
        B = bound.bit_length() + 2


@cache
def _insert(high, g, B):
    """(nf(high g), bound) for a canonical word high, possibly empty, whose
    letters all exceed the generator g: a dict canonical word -> packed
    coefficient at width B, and a bound on its total |coefficient|.

    g bubbles leftwards through high.  Passing a letter in its row or column
    multiplies by q^{-1} = v^{-2}; passing an anti-diagonal letter is free;
    passing h = high[p] = (i1, j1) strictly below and right of g = (i2, j2),
    i.e. i1 > i2 and j1 > j2, also splits off
    v^e (q^{-1} - q) nf(high[:p] (i2, j1) (i1, j2)) high[p + 1:].  That
    normal form has no letter above h, so the suffix stays in place.  The
    bound is 1 for the bubbled word plus twice the bound of each split-off
    normal form, tightened."""
    i2, j2 = g
    e = 0
    acc = {}
    bound = 1
    for p in range(len(high) - 1, -1, -1):
        i1, j1 = high[p]
        if i1 == i2 or j1 == j2:
            e -= 2
        elif j1 > j2:
            # v^e (q^{-1} - q) = v^(e - 2) (1 - v^4)
            suffix = high[p + 1:]
            nf, lam = _times_packed({high[:p]: (0, 1)}, 1,
                                    [(((i2, j1), (i1, j2)), (0, 1), 1)], B)
            bound += 2 * lam
            for w, (b, y) in nf.items():
                _add_packed(acc, w + suffix, e - 2 + b, y - (y << 4 * B), B)
    _add_packed(acc, (g,) + high, e, 1, B)
    acc = {w: c for w, c in acc.items() if c[1]}
    return acc, bound if bound == 1 else _tightened(acc, bound, B)


def _add_packed(acc, w, a, N, B):
    """acc[w] += (a, N), shifting the one with the larger a."""
    old = acc.get(w)
    if old is None:
        acc[w] = (a, N)
    elif old[0] <= a:
        acc[w] = (old[0], old[1] + (N << B * (a - old[0])))
    else:
        acc[w] = (a, N + (old[1] << B * (old[0] - a)))


def _mul_letter(terms, g, B):
    """(nf(terms g), top) for a dict terms of canonical words -> nonzero
    packed coefficients at width B and a generator g: the packed normal
    form, and the largest bound of the inserts it used, so that its mass
    is at most top times that of terms."""
    acc = {}
    top = 1
    cancelled = False
    for t, (a, x) in terms.items():
        s = bisect_right(t, g)
        nf, bound = _insert(t[s:], g, B)
        low = t[:s]
        if bound > top:
            top = bound
        for w, (b, y) in nf.items():
            # _add_packed, inlined in this loop and _times_packed's
            w = low + w
            b += a
            y *= x
            old = acc.get(w)
            if old is None:
                acc[w] = (b, y)
                continue
            b0, y0 = old
            if b0 <= b:
                y = y0 + (y << B * (b - b0))
                b = b0
            else:
                y += y0 << B * (b0 - b)
            acc[w] = (b, y)
            if not y:
                cancelled = True
    if cancelled:
        acc = {w: c for w, c in acc.items() if c[1]}
    return acc, top


def _times_packed(terms, mass, words, B):
    """(sum_w c_w nf(terms w), bound) at width B, for packed terms of total
    |coefficient| at most mass and a sorted list words of distinct
    (word, packed c_w, total |c_w|) triples; the bound adds |c_w| times
    the bound of each nf(terms w), each tightened from 2^(B - 2) on.  See
    _times_words."""
    acc = {}
    bound = 0
    stack = [(terms, mass)]     # stack[t] = nf(terms w[:t]) for the last w
    prev = ()
    for w, (a, c), cm in words:
        p = 0
        while p < len(prev) and prev[p] == w[p]:
            p += 1
        del stack[p + 1:]
        for g in w[p:]:
            t, m = stack[-1]
            t, top = _mul_letter(t, g, B)
            m *= top
            if m >> (B - 2):
                m = _tightened(t, m, B)
            stack.append((t, m))
        t, m = stack[-1]
        bound += cm * m
        for u, (b, x) in t.items():
            b += a
            x *= c
            old = acc.get(u)
            if old is None:
                acc[u] = (b, x)
            elif old[0] <= b:
                acc[u] = (old[0], old[1] + (x << B * (b - old[0])))
            else:
                acc[u] = (b, x + (old[1] << B * (old[0] - b)))
        prev = w
    return {w: c for w, c in acc.items() if c[1]}, bound


def _times_words(terms, *word_lists):
    """terms W_1 ... W_k in normal form, W_i = sum_w c_w w over the i-th of
    word_lists: each list's words are inserted into the normal form of
    terms times the lists before it.  terms is a dict canonical word ->
    coefficient, each list a sorted list of distinct (word, c_w) pairs,
    where a word is any tuple of generators, canonical or not, and the
    result a dict canonical word -> coefficient; every coefficient is a
    nonzero Laurent coefficient, a dict v-exponent -> integer, since every
    rewriting coefficient has denominator 1.  Letters are inserted one at a
    time, and neighbouring words share the products of their common prefix.
    The words may differ in length: sorted order puts a word before its
    extensions, so no word is a proper prefix of the one before it and the
    prefix scan stays inside w.  nf(w) itself is
    _times_words({(): {0: 1}}, [(w, {0: 1})])."""
    mass = sum(_mass(c) for c in terms.values())

    def run(B):
        t, m = {w: _pack(c, B) for w, c in terms.items()}, mass
        for words in word_lists:
            t, m = _times_packed(t, m, [(w, _pack(c, B), _mass(c))
                                        for w, c in words], B)
        return t, m
    return _certified(run)


def _coproduct_legs(n, factors, c):
    """Delta(c x_{f_1} ... x_{f_L}) at rank n for the word factors and a
    Laurent coefficient c: a dict (left leg, right leg) -> Laurent
    coefficient, both legs canonical.  Delta is applied letter by letter,
    Delta(w x_{i,j}) = sum_k Delta(w) (x_{i,k} (x) x_{k,j}), so equal pairs
    merge as they arise; a letter multiplies the bound by the largest sum
    over k of the two legs' insert bounds."""
    def run(B):
        pairs, mass = {((), ()): _pack(c, B)}, _mass(c)
        for (i, j) in factors:
            nxt = {}
            step = 1
            for (lw, rw), cp in pairs.items():
                s = 0
                for k in range(1, n + 1):
                    right, br = _mul_letter({rw: (0, 1)}, (k, j), B)
                    left, bl = _mul_letter({lw: cp}, (i, k), B)
                    s += bl * br
                    for cl, (a, x) in left.items():
                        for cr, (b, y) in right.items():
                            _add_packed(nxt, (cl, cr), a + b, x * y, B)
                step = max(step, s)
            pairs = {p: cp for p, cp in nxt.items() if cp[1]}
            mass *= step
        return pairs, mass
    return _certified(run)
