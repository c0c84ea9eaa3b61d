"""Finite fields F_{p^m} with deterministic moduli and embeddings.

Representation. An element of F_{p^m} is the residue
c_0 + c_1 x + ... + c_{m-1} x^{m-1} modulo a fixed monic irreducible
modulus, packed into the integer code sum(c_i * p**i). Integer comparison
of codes therefore orders coefficient vectors most-significant-first; that
ordering is the canonical element order used for every deterministic
choice in the package (moduli, generators, representatives, witnesses).

The modulus of F_{p^m} is the lexicographically least monic irreducible
of degree m, coefficients compared from x^(m-1) down to the constant
term. For m = 1 this yields the polynomial x, so prime-field codes are
the usual residues 0..p-1. The search tries the candidates in that order
with Rabin's test. The powers x^(p^i) mod f are taken in the packed ring
F_p[x]/f of the candidate (PackedRing, the arithmetic a field is built
on), and the gcds with x^(p^i) - x over F_p on plain integers: bit-packed
polynomials under XOR for p = 2, lists reduced % p for odd p. poly_divmod
and poly_gcd take the same route over any prime field.

Arithmetic takes one of three paths, chosen by q: full q*q add/mul/neg/inv
tables for q <= 512, exp/log tables of the least multiplicative generator
for q <= 2^16, and raw polynomial arithmetic above that. Every field
starts on the raw path, which is exact, and builds its tables only once
it has done about as much work as building them costs. A field of q <=
2^16 walks the exp/log tables (g^i in packed form, q - 1 multiplies) once
its raw path has done as many packed multiplies. A field of q <= 512
builds its q*q tables, from the exp/log tables, once it has done q*q of
the operations they serve (add, sub, neg, mul and inv; a Mat product
charges its n^3 terms on top of the scalar calls it makes), about what
writing their entries costs. A field that hosts a handful of
elements never pays for either; bulk work does at most q - 1 packed
multiplies on the raw path and q*q operations off the q*q tables before
it has them.

A raw product works on a packed form of the code. For p = 2 the code
already is the bit vector of the coefficients, and the product is a
carry-less shift-and-XOR multiply. For odd p the digits are spread into
w-bit slots of one integer, wide enough that no coefficient of a product
carries into the next slot, so one integer multiply forms every
coefficient at once (Kronecker substitution); one multiply by a
fixed-point reciprocal of p then reduces all slots mod p together.
Either way the product is reduced with x^m = g, where g is the negated
low part of the modulus.

Polynomials over a field context are plain tuples of codes, constant
term first, with no trailing zeros (the zero polynomial is the empty
tuple). The helpers below work over any context, prime or not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundExceeded, ConsistencyError
from . import limits

_TABLE_Q = 512  # full q*q add/mul tables below this
_LOG_Q = 1 << 16  # exp/log tables below this


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient tuples over an arbitrary context)


def poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def poly_add(ctx: "FieldCtx", f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = ctx.add(out[i], c)
    return poly_trim(tuple(out))


def poly_neg(ctx: "FieldCtx", f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(ctx.neg(c) for c in f)


def poly_sub(ctx: "FieldCtx", f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return poly_add(ctx, f, poly_neg(ctx, g))


def poly_mul(ctx: "FieldCtx", f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return poly_trim(tuple(out))


def poly_scale(ctx: "FieldCtx", f: tuple[int, ...], s: int) -> tuple[int, ...]:
    if s == 0:
        return ()
    return poly_trim(tuple(ctx.mul(c, s) for c in f))


def poly_divmod(
    ctx: "FieldCtx", f: tuple[int, ...], g: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if ctx.m == 1:
        p = ctx.p
        quo, rem = _fp_divmod(p, _fp_rep(p, f), _fp_rep(p, g))
        return _fp_tuple(p, quo), _fp_tuple(p, rem)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    lead_inv = ctx.inv(g[-1])
    quo = [0] * max(len(f) - dg, 0)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        factor = ctx.mul(c, lead_inv)
        quo[i - dg] = factor
        for j in range(dg + 1):
            rem[i - dg + j] = ctx.sub(rem[i - dg + j], ctx.mul(factor, g[j]))
    return poly_trim(tuple(quo)), poly_trim(tuple(rem))


def poly_mod(ctx: "FieldCtx", f, g):
    return poly_divmod(ctx, f, g)[1]


def poly_monic(ctx: "FieldCtx", f: tuple[int, ...]) -> tuple[int, ...]:
    if not f or f[-1] == 1:
        return f
    return poly_scale(ctx, f, ctx.inv(f[-1]))


def poly_gcd(ctx: "FieldCtx", f, g) -> tuple[int, ...]:
    """Monic gcd; gcd(f, 0) = monic(f)."""
    if ctx.m == 1:
        p = ctx.p
        return _fp_tuple(p, _fp_gcd(p, _fp_rep(p, f), _fp_rep(p, g)))
    while g:
        f, g = g, poly_mod(ctx, f, g)
    return poly_monic(ctx, f)


def poly_pow_mod(ctx: "FieldCtx", f, e: int, mod) -> tuple[int, ...]:
    result = (1,)
    base = poly_mod(ctx, f, mod)
    while e > 0:
        if e & 1:
            result = poly_mod(ctx, poly_mul(ctx, result, base), mod)
        base = poly_mod(ctx, poly_mul(ctx, base, base), mod)
        e >>= 1
    return result


def poly_eval(ctx: "FieldCtx", f: tuple[int, ...], a: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, a), c)
    return acc


def poly_roots(ctx: "FieldCtx", f: tuple[int, ...]) -> list[int]:
    """The distinct roots of a nonzero f in ascending code order, with f evaluated
    at no element: gcd(f, x^q - x) is the product of f's distinct linear factors,
    and equal-degree splitting (Cantor and Zassenhaus, Math. Comp. 36, 1981) parts it."""
    x = (0, 1)
    todo = [poly_gcd(ctx, f, poly_sub(ctx, poly_pow_mod(ctx, x, ctx.q, f), x))]
    roots = []
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(ctx.neg(g[0]))
        elif len(g) > 2:
            gcds = (poly_gcd(ctx, g, s) for s in _splitters(ctx, g))
            h = next(h for h in gcds if 1 < len(h) < len(g))
            todo += [h, poly_divmod(ctx, g, h)[0]]
    return sorted(roots)


def _splitters(ctx: "FieldCtx", g: tuple[int, ...]):
    """Polynomials mod g, a product of >= 2 distinct linear factors, one of
    which has a proper gcd with g. p = 2: Tr(a*x) for a = theta^k (codes 2^k),
    a basis, so some a separates two roots. Odd q: (x + a)^((q-1)/2) - 1."""
    if ctx.p == 2:
        for k in range(ctx.m):
            t = acc = poly_mod(ctx, (0, 1 << k), g)
            for _ in range(ctx.m - 1):
                t = poly_mod(ctx, poly_mul(ctx, t, t), g)
                acc = poly_add(ctx, acc, t)
            yield acc
    else:
        for a in range(ctx.q):
            yield poly_sub(ctx, poly_pow_mod(ctx, (a, 1), ctx.q // 2, g), (1,))


def poly_deriv(ctx: "FieldCtx", f: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for i in range(1, len(f)):
        c = f[i]
        acc = 0
        for _ in range(i % ctx.p):
            acc = ctx.add(acc, c)
        out.append(acc)
    return poly_trim(tuple(out))


def poly_is_squarefree(ctx: "FieldCtx", f: tuple[int, ...]) -> bool:
    """True iff f has no repeated irreducible factor (perfect base field)."""
    return poly_gcd(ctx, f, poly_deriv(ctx, f)) == (1,)


# ---------------------------------------------------------------------------
# polynomials over a prime field on plain integers
#
# A prime field's codes are the residues 0..p-1, so its polynomials need no
# context: poly_divmod and poly_gcd come here when ctx.m == 1, and so does
# the modulus search. For p = 2 a polynomial is bit-packed (bit i holds the
# coefficient of x^i), so subtracting a shifted divisor is one XOR and the
# degree is bit_length() - 1; for odd p it is a trimmed list of residues,
# constant term first, updated a slice at a time and reduced % p.


def _fp_rep(p: int, f) -> int | list[int]:
    """A coefficient sequence over F_p in the form _fp_divmod takes."""
    if p == 2:
        return int("".join(map(str, reversed(f))), 2) if f else 0
    return list(poly_trim(f))


def _fp_tuple(p: int, a: int | list[int]) -> tuple[int, ...]:
    """Inverse of _fp_rep: the trimmed coefficient tuple."""
    if p == 2:
        return tuple(map(int, reversed(bin(a)[2:]))) if a else ()
    return tuple(a)


def _fp_divmod(p: int, a, b):
    """Quotient and remainder of a by b != 0 over F_p, both in _fp_rep form."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if p == 2:
        db = b.bit_length()
        quo = 0
        while (s := a.bit_length() - db) >= 0:
            quo ^= 1 << s
            a ^= b << s
        return quo, a
    rem = list(a)
    db = len(b) - 1
    low = b[:-1]
    lead_inv = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - db - 1, -1, -1):
        c = rem.pop()  # the coefficient of x^(i + db), cancelled by c/lead * x^i * b
        if c:
            c = c * lead_inv % p
            quo[i] = c
            rem[i:i + db] = [(r - c * d) % p for r, d in zip(rem[i:i + db], low)]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _fp_gcd(p: int, a, b):
    """Monic gcd over F_p of two polynomials in _fp_rep form; gcd(a, 0) = monic(a)."""
    while b:
        a, b = b, _fp_divmod(p, a, b)[1]
    if p == 2 or not a or a[-1] == 1:
        return a
    lead_inv = pow(a[-1], -1, p)
    return [c * lead_inv % p for c in a]


# ---------------------------------------------------------------------------
# field contexts


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int]:
    """(p, m) with n = p^m; ValueError when n is not a prime power."""
    fac = _factorize(n)
    if len(fac) != 1:
        raise ValueError(f"{n} is not a prime power")
    (p, m), = fac.items()
    return p, m


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return _factorize(n) == {n: 1}


class PackedRing:
    """The ring F_p[x]/(f) for a monic f of degree m over F_p, on packed codes.

    A residue has the code of a field element (sum c_i p^i); its packed form
    holds one digit per slot (for p = 2 the code itself), so one integer
    multiply forms a whole product. FieldCtx is this ring on an irreducible
    modulus; the modulus search builds one per candidate.
    """

    __slots__ = ("p", "m", "modulus", "_xm", "_slot", "_recip", "_digit_mask", "_levels")

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m = len(modulus) - 1
        self.modulus = modulus
        # x^m = g modulo the monic modulus, g = -(modulus - x^m)
        g = [(p - c) % p for c in modulus[:-1]]
        if p == 2:
            self._xm = self._encode(g)
            self._levels = ()
            return
        # before a reduction mod p a slot holds at most m products of two
        # digits (a product of packed codes), or at most m - 1 such products
        # plus a digit (a fold in _mul_packed). Slot-wise, v mod p is
        # v - p*floor(v/p) with floor(v/p) = floor(v*recip / 2^shift), exact
        # for v < 2^bits since v*(recip*p - 2^shift) < 2^bits * p <= 2^shift
        bits = (m * (p - 1) ** 2).bit_length()
        shift = bits + p.bit_length()
        w = bits + shift  # v*recip < 2^w, so no slot spills into the next
        self._slot = w
        self._recip = (-(-(1 << shift) // p), shift)
        self._digit_mask = sum(((1 << bits) - 1) << (i * w) for i in range(2 * m - 1))
        self._xm = self._pack(self._encode(g))
        # unpacking merges adjacent slots pairwise: at each level the low
        # slot of every pair gains the high one times p^span
        levels = []
        width, span = w, 1
        while span < m:
            pairs = -(-m // (2 * span))
            even = sum(((1 << width) - 1) << (2 * width * i) for i in range(pairs))
            levels.append((width, even, p**span))
            width, span = 2 * width, 2 * span
        self._levels = levels

    def _decode(self, code: int) -> list[int]:
        p = self.p
        out = [0] * self.m
        for i in range(self.m):
            code, out[i] = divmod(code, p)
        return out

    def _encode(self, coeffs) -> int:
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c
        return code

    def _pack(self, code: int) -> int:
        """Base-p code -> one digit per slot (p = 2: the code itself)."""
        p = self.p
        if p == 2:
            return code
        w = self._slot
        out = sh = 0
        while code:
            out |= code % p << sh
            code //= p
            sh += w
        return out

    def _unpack(self, packed: int) -> int:
        """Inverse of _pack, for m slots each holding a digit below p."""
        for width, even, scale in self._levels:
            packed = (packed & even) + (packed >> width & even) * scale
        return packed

    def _reduce_digits(self, packed: int) -> int:
        recip, shift = self._recip
        return packed - self.p * (packed * recip >> shift & self._digit_mask)

    def _mul_packed(self, a: int, b: int) -> int:
        """Product of two packed codes, reduced modulo the modulus."""
        m, g = self.m, self._xm
        if self.p == 2:
            prod = _clmul(a, b)
            low = (1 << m) - 1
            while prod >> m:
                prod = (prod & low) ^ _clmul(prod >> m, g)
            return prod
        # the part above x^m times g is added back until none is left; g has
        # low degree for least moduli and the candidates before them, so one
        # or two rounds do
        mw = m * self._slot
        low = (1 << mw) - 1
        prod = self._reduce_digits(a * b)
        while prod >> mw:
            prod = self._reduce_digits((prod & low) + (prod >> mw) * g)
        return prod

    def _pow_packed(self, base: int, e: int) -> int:
        """base^e of a packed code for e >= 0, by square and multiply."""
        result = 1  # packed 1 is 1
        while True:
            if e & 1:
                result = self._mul_packed(result, base)
            e >>= 1
            if not e:
                return result
            base = self._mul_packed(base, base)


class FieldCtx(PackedRing):
    """Arithmetic context for F_{p^m}; construct via make_field only."""

    __slots__ = (
        "q", "name",
        "_add_tab", "_mul_tab", "_neg_tab", "_inv_tab",
        "_exp", "_log", "_gen_code", "_raw_left", "_table_left",
    )

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        super().__init__(p, modulus)
        self.q = p**m
        self.name = f"{p}^{m}" if m > 1 else f"{p}"
        self._add_tab = self._mul_tab = self._neg_tab = self._inv_tab = None
        self._exp = self._log = None
        self._gen_code = None
        # packed multiplies the raw path may still do before the exp/log
        # table is walked: as many as the walk itself costs
        self._raw_left = self.q - 1 if self.q <= _LOG_Q else math.inf
        # operations the q*q tables would serve (add, sub, neg, mul, inv, and
        # the n^3 terms of a Mat product) that the field may do before it
        # builds them: q*q, about the cost of writing their 2*q*q entries
        self._table_left = self.q * self.q if self.q <= _TABLE_Q else math.inf

    # -- raw arithmetic on codes, through the packed ring -------------------

    def _mul_raw(self, a: int, b: int) -> int:
        return self._unpack(self._mul_packed(self._pack(a), self._pack(b)))

    def _add_raw(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def _neg_raw(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        while a:
            d = a % p
            out += ((p - d) % p) * mult
            a //= p
            mult *= p
        return out

    def _pow_raw(self, a: int, e: int) -> int:
        """a^e for a unit a and 0 <= e < q - 1."""
        return self._unpack(self._pow_packed(self._pack(a), e))

    # -- table construction -------------------------------------------------

    def _find_generator(self) -> int:
        if self._gen_code is not None:
            return self._gen_code
        order = self.q - 1
        primes = list(_factorize(order)) if order > 1 else []
        for cand in range(1, self.q):
            if all(self._pow_raw(cand, order // ell) != 1 for ell in primes):
                self._gen_code = cand
                return cand
        raise ConsistencyError("no multiplicative generator found")

    def _build_exp_log(self) -> None:
        g = self._find_generator()
        order = self.q - 1
        exp = [0] * order
        log = [0] * self.q
        step = self._pack(g)
        cur = 1
        for i in range(order):
            code = self._unpack(cur)
            exp[i] = code
            log[code] = i
            cur = self._mul_packed(cur, step)
        self._exp = exp
        self._log = log

    def _build_small_tables(self) -> None:
        p, q = self.p, self.q
        if self._exp is None:
            self._build_exp_log()
        exp, log = self._exp, self._log
        order = q - 1
        exp2, logs = exp + exp, log[1:]
        mul = [0] * (q * q)
        for a in range(1, q):
            la = log[a]
            mul[a * q + 1:(a + 1) * q] = [exp2[la + lb] for lb in logs]
        # digit by digit: with a = a0 + p*a' and b = b0 + p*b',
        # a + b = (a0 + b0) % p + p*(a' + b'), and blocks[x][d] lists
        # p*x + (d + b0) % p over b0. Entries are drawn from codes, so the
        # table holds q int objects however large q*q is.
        codes = list(range(q))
        rows = [[0]]
        for k in range(self.m):
            blocks = [
                [codes[p * x + d:p * x + p] + codes[p * x:p * x + d] for d in range(p)]
                for x in range(p**k)
            ]
            rows = [[v for x in hi for v in blocks[x][d]] for hi in rows for d in range(p)]
        add = [s for row in rows for s in row]
        self._mul_tab = mul
        self._add_tab = add
        self._neg_tab = [self._neg_raw(a) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            inv[a] = exp[(order - log[a]) % order]
        self._inv_tab = inv

    # -- public arithmetic on codes -----------------------------------------

    def add(self, a: int, b: int) -> int:
        t = self._add_tab
        if t is not None:
            return t[a * self.q + b]
        if self.q <= _TABLE_Q and self._tables_due(1):
            return self._add_tab[a * self.q + b]
        return self._add_raw(a, b)

    def neg(self, a: int) -> int:
        t = self._neg_tab
        if t is not None:
            return t[a]
        if self.q <= _TABLE_Q and self._tables_due(1):
            return self._neg_tab[a]
        return self._neg_raw(a)

    def sub(self, a: int, b: int) -> int:
        t = self._add_tab
        if t is not None:
            return t[a * self.q + self._neg_tab[b]]
        if self.q <= _TABLE_Q and self._tables_due(1):
            return self._add_tab[a * self.q + self._neg_tab[b]]
        return self._add_raw(a, self._neg_raw(b))

    def mul(self, a: int, b: int) -> int:
        t = self._mul_tab
        if t is not None:
            return t[a * self.q + b]
        if self.q <= _TABLE_Q and self._tables_due(1):
            return self._mul_tab[a * self.q + b]
        if self._exp is None and not self._walk_due(1):
            return self._mul_raw(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverting 0 in F_{self.name}")
        t = self._inv_tab
        if t is not None:
            return t[a]
        if self.q <= _TABLE_Q and self._tables_due(1):
            return self._inv_tab[a]
        return self._pow_unit(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 has no negative powers")
        return self._pow_unit(a, e % (self.q - 1))

    def _pow_unit(self, a: int, e: int) -> int:
        """a^e for a unit a and 0 <= e < q - 1; square and multiply costs
        about e.bit_length() + e.bit_count() packed multiplies."""
        if self._exp is None and not self._walk_due(e.bit_length() + e.bit_count()):
            return self._pow_raw(a, e)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def _walk_due(self, cost: int) -> bool:
        """Charge `cost` packed multiplies to the raw path and walk the
        exp/log table once the raw path has done as many as the walk costs
        (q - 1). True when the table exists."""
        self._raw_left -= cost
        if self._raw_left > 0:
            return False
        self._build_exp_log()
        return True

    def _tables_due(self, cost: int) -> bool:
        """Charge `cost` operations the q*q tables would serve and build the
        tables once the field has done q*q of them. True when they exist."""
        self._table_left -= cost
        if self._table_left > 0:
            return False
        self._build_small_tables()
        return True

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def coeffs(self, code: int) -> tuple[int, ...]:
        return tuple(self._decode(code))

    def encode(self, coeffs) -> int:
        return self._encode(coeffs)

    def __repr__(self) -> str:
        return f"FieldCtx(F_{self.name})"


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two bit-packed polynomials over F_2."""
    rows = (0, a, a << 1, a << 1 ^ a)
    out = sh = 0
    while b:
        out ^= rows[b & 3] << sh
        b >>= 2
        sh += 2
    return out


# ---------------------------------------------------------------------------
# modulus selection and the field cache


def _irreducible(p: int, f: tuple[int, ...]) -> bool:
    """Rabin's test for a monic f of degree m >= 2 over F_p: f is irreducible
    iff x^(p^m) = x mod f and gcd(f, x^(p^(m/l)) - x) = 1 for every prime
    l | m. The powers x^(p^i) are taken in the packed ring F_p[x]/f and the
    gcds over F_p on plain integers (_fp_gcd). The gcd at i = 1, a root in
    F_p, is taken too, since most reducible candidates fail there."""
    ring = PackedRing(p, f)
    m = len(f) - 1
    x = ring._pack(p)
    checks = {1} | {m // ell for ell in _factorize(m)}
    fp, one = _fp_rep(p, f), _fp_rep(p, (1,))
    t = x
    for i in range(1, m + 1):
        t = ring._pow_packed(t, p)
        if i in checks:
            if p == 2:
                h = t ^ 2  # x^(2^i) + x, bit-packed like the code
            else:
                h = ring._decode(ring._unpack(t))
                h[1] = (h[1] - 1) % p
                h = _fp_rep(p, h)
            if _fp_gcd(p, fp, h) != one:
                return False
    return t == x


def _least_irreducible(p: int, m: int) -> tuple[int, ...]:
    for k in range(p**m):
        coeffs = []
        kk = k
        for _ in range(m):
            coeffs.append(kk % p)
            kk //= p
        # k's base-p digits give (c_0, ..., c_{m-1}) with c_{m-1} most
        # significant in the scan order required of the tie-break
        f = tuple(coeffs) + (1,)
        if _irreducible(p, f):
            return f
    raise ConsistencyError(f"no irreducible of degree {m} over F_{p}")


_FIELDS: dict[tuple[int, int], FieldCtx] = {}


def _field(p: int, m: int) -> FieldCtx:
    """make_field without the ZK_MAX_FIELD check, for the fields the package
    derives itself (see limits). The prime field's modulus is x."""
    ctx = _FIELDS.get((p, m))
    if ctx is None:
        ctx = _FIELDS[(p, m)] = FieldCtx(p, m, _least_irreducible(p, m) if m > 1 else (0, 1))
    return ctx


def make_field(p: int, m: int) -> FieldCtx:
    """Return the canonical F_{p^m} context (cached singleton per (p, m)).

    Raises ValueError for bad p or m, and BoundExceeded if p**m exceeds
    the field bound, limits.max_field() (ZK_MAX_FIELD / --max-field).
    """
    if m < 1:
        raise ValueError(f"extension degree must be >= 1, got {m}")
    if not _is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    bound = limits.max_field()
    if p**m > bound:
        raise BoundExceeded(
            f"field order {p}^{m} exceeds bound {bound} (ZK_MAX_FIELD / --max-field)"
        )
    return _field(p, m)


def parse_field(text: str) -> FieldCtx:
    """Parse 'p^m' or a prime-power integer literal like '9' into a context."""
    text = text.strip()
    if "^" in text:
        p_s, m_s = text.split("^", 1)
        return make_field(int(p_s), int(m_s))
    return make_field(*prime_power(int(text)))


# ---------------------------------------------------------------------------
# typed elements


@dataclass(frozen=True)
class FqElem:
    """A field element: context plus packed code."""

    ctx: FieldCtx
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.ctx.q:
            raise ValueError(f"code {self.code} out of range for F_{self.ctx.name}")

    def _check(self, other: "FqElem") -> None:
        if other.ctx is not self.ctx:
            raise ValueError("mixed field contexts; embed explicitly first")

    def __add__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.ctx, self.ctx.add(self.code, other.code))

    def __sub__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.ctx, self.ctx.sub(self.code, other.code))

    def __mul__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.ctx, self.ctx.mul(self.code, other.code))

    def __truediv__(self, other: "FqElem") -> "FqElem":
        self._check(other)
        return FqElem(self.ctx, self.ctx.mul(self.code, self.ctx.inv(other.code)))

    def __pow__(self, e: int) -> "FqElem":
        return FqElem(self.ctx, self.ctx.pow(self.code, e))

    def __neg__(self) -> "FqElem":
        return FqElem(self.ctx, self.ctx.neg(self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return f"Fq({self.ctx.name}:{self.code})"


def _as_code(ctx: FieldCtx, x) -> int:
    if isinstance(x, FqElem):
        if x.ctx is not ctx:
            raise ValueError("element belongs to a different field context")
        return x.code
    code = int(x)
    if not 0 <= code < ctx.q:
        raise ValueError(f"code {code} out of range for F_{ctx.name}")
    return code


# ---------------------------------------------------------------------------
# embeddings


@lru_cache(maxsize=None)
def _embedding_root(src: FieldCtx, dst: FieldCtx) -> int:
    if src.m == 1:
        return 0
    roots = poly_roots(dst, src.modulus)
    if len(roots) != src.m:
        raise ConsistencyError(f"modulus of F_{src.name} has {len(roots)} roots in F_{dst.name}")
    # keep only roots compatible with the canonical embedding of every
    # proper subfield, so embedding triangles commute
    constraints = []
    for d in range(2, src.m):
        if src.m % d:
            continue
        sub = _field(src.p, d)
        theta = sub.p  # the residue class of x in the subfield
        via_src = _embed_code(sub, src, theta)
        direct = _embed_code(sub, dst, theta)
        constraints.append((src.coeffs(via_src), direct))
    for rho in roots:
        if all(poly_eval(dst, poly_trim(rep), rho) == expected for rep, expected in constraints):
            return rho
    raise ConsistencyError("no subfield-compatible embedding root")


def _embed_code(src: FieldCtx, dst: FieldCtx, code: int) -> int:
    if src is dst:
        return code
    rho = _embedding_root(src, dst)
    return poly_eval(dst, poly_trim(src.coeffs(code)), rho)


def embed(src: FieldCtx, dst: FieldCtx, x) -> FqElem:
    """The canonical injection F_{p^a} -> F_{p^b} for a | b.

    Sends the residue class of x in src to the least root of src's modulus
    in dst that restricts to the canonical embedding on every proper
    subfield; compositions along towers therefore agree exactly.
    """
    if src.p != dst.p:
        raise ValueError(f"characteristics differ: {src.p} vs {dst.p}")
    if dst.m % src.m:
        raise ValueError(f"F_{src.name} is not a subfield of F_{dst.name}")
    return FqElem(dst, _embed_code(src, dst, _as_code(src, x)))


def mult_generator(ctx: FieldCtx) -> FqElem:
    """Least generator of the multiplicative group in canonical order."""
    return FqElem(ctx, ctx._find_generator())


# ---------------------------------------------------------------------------
# n-th power classes of the unit group


@dataclass(frozen=True)
class PowerClasses:
    """The quotient of the units of ctx by n-th powers, by brute force."""

    ctx: FieldCtx
    n: int
    reps: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.reps)


def power_class_count(ctx: FieldCtx, n: int) -> PowerClasses:
    """Partition the units into cosets of the n-th powers.

    The coset partition is computed by enumeration; the gcd(n, q-1) size
    identity is then asserted against it rather than assumed.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    q = ctx.q
    powers = sorted({ctx.pow(u, n) for u in range(1, q)})
    covered = bytearray(q)
    reps = []
    for u in range(1, q):
        if covered[u]:
            continue
        reps.append(u)
        for s in powers:
            covered[ctx.mul(u, s)] = 1
    expected = math.gcd(n, q - 1)
    if len(reps) != expected:
        raise ConsistencyError(
            f"power coset enumeration gave {len(reps)} classes, gcd says {expected}"
        )
    return PowerClasses(ctx, n, tuple(reps))
