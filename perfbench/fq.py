"""Small finite-field arithmetic used to generate the structural workload.

The benchmark builds its structural inputs, and the answers it expects,
from data it chose itself: characteristic polynomials built as products of
irreducible factors of known degrees, and random invertible conjugators.
This module is independent of zclasskit so that the oracle never comes
from the route under test.

Elements are codes sum(c_i * p**i) of their coefficient vectors in the
basis 1, x, ..., x^(m-1) of F_p[x]/(modulus), which is the encoding
zclasskit uses; the child process checks that the library chose the same
modulus before it decodes any input.
"""
from __future__ import annotations

import random

# The least monic irreducible of each degree in zclasskit's scan order,
# low coefficient first. Prime fields use the polynomial x.
MODULI = {3: (3, (0, 1)), 5: (5, (0, 1)), 7: (7, (0, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}


class SmallField:
    """F_q for q <= 9 with full addition and multiplication tables."""

    def __init__(self, q: int):
        self.p, self.modulus = MODULI[q]
        self.m = len(self.modulus) - 1
        self.q = q
        digits = [self._digits(a) for a in range(q)]
        self.add_tab = [[self._code([(x + y) % self.p for x, y in zip(digits[a], digits[b])])
                         for b in range(q)] for a in range(q)]
        self.mul_tab = [[self._code(self._mul_digits(digits[a], digits[b]))
                         for b in range(q)] for a in range(q)]
        self.neg_tab = [self._code([(-x) % self.p for x in digits[a]]) for a in range(q)]
        self.inv_tab = [0] * q
        for a in range(1, q):
            self.inv_tab[a] = next(b for b in range(1, q) if self.mul_tab[a][b] == 1)

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.m):
            code, d = divmod(code, self.p)
            out.append(d)
        return out

    def _code(self, digits) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _mul_digits(self, a, b) -> list[int]:
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        low = self.modulus[:-1]
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i, r in enumerate(low):
                    prod[k - m + i] = (prod[k - m + i] - c * r) % p
        return prod[:m]

    def add(self, a: int, b: int) -> int:
        return self.add_tab[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_tab[a][self.neg_tab[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_tab[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.inv_tab[a]

    def pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out


# -- polynomials: tuples of codes, low coefficient first, monic ----------------


def poly_mul(F: SmallField, f, g) -> tuple[int, ...]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return tuple(out)


def _divides(F: SmallField, d, f) -> bool:
    """Whether monic d divides f."""
    rem = list(f)
    dd = len(d) - 1
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if c:
            for i, a in enumerate(d):
                rem[k - dd + i] = F.sub(rem[k - dd + i], F.mul(c, a))
    return not any(rem[:dd])


def _monic_polys(F: SmallField, deg: int):
    for k in range(F.q**deg):
        low = []
        for _ in range(deg):
            k, c = divmod(k, F.q)
            low.append(c)
        yield tuple(low) + (1,)


def is_irreducible(F: SmallField, f) -> bool:
    deg = len(f) - 1
    return all(
        not _divides(F, d, f)
        for k in range(1, deg // 2 + 1)
        for d in _monic_polys(F, k)
    )


def random_irreducible(F: SmallField, deg: int, rng: random.Random) -> tuple[int, ...]:
    """A random monic irreducible of the given degree other than x."""
    while True:
        f = tuple(rng.randrange(F.q) for _ in range(deg)) + (1,)
        if f[0] and is_irreducible(F, f):
            return f


def irreducible_count(q: int, deg: int) -> int:
    """Monic irreducibles of the given degree over F_q, x excluded (deg <= 4)."""
    return {1: q - 1, 2: (q * q - q) // 2, 3: (q**3 - q) // 3, 4: (q**4 - q * q) // 4}[deg]


# -- matrices: flat row-major lists of codes -----------------------------------


def companion(F: SmallField, f) -> list[int]:
    """Companion of monic f, laid out as zclasskit's Mat.companion."""
    d = len(f) - 1
    data = [0] * (d * d)
    for i in range(1, d):
        data[i * d + i - 1] = 1
    for i in range(d):
        data[i * d + d - 1] = F.neg_tab[f[i]]
    return data


def mat_mul(F: SmallField, n: int, a, b) -> list[int]:
    out = [0] * (n * n)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = F.add(acc, F.mul(a[i * n + k], b[k * n + j]))
            out[i * n + j] = acc
    return out


def mat_det_inv(F: SmallField, n: int, a) -> tuple[int, list[int] | None]:
    """Determinant and inverse by Gauss-Jordan; the inverse is None when singular."""
    aug = [list(a[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)] for i in range(n)]
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            return 0, None
        if piv != c:
            aug[c], aug[piv] = aug[piv], aug[c]
            det = F.neg_tab[det]
        det = F.mul(det, aug[c][c])
        s = F.inv(aug[c][c])
        aug[c] = [F.mul(s, v) for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(aug[i], aug[c])]
    return det, [aug[i][n + j] for i in range(n) for j in range(n)]


def random_conjugator(F: SmallField, n: int, rng: random.Random, det_one: bool) -> tuple[list[int], list[int]]:
    """A random invertible matrix (determinant 1 if asked) and its inverse."""
    while True:
        a = [rng.randrange(F.q) for _ in range(n * n)]
        det, inv = mat_det_inv(F, n, a)
        if inv is None:
            continue
        if det_one:
            # scaling the first row by det^-1 makes the determinant 1
            s = F.inv(det)
            a[:n] = [F.mul(s, v) for v in a[:n]]
            det, inv = mat_det_inv(F, n, a)
        return a, inv


def conjugate(F: SmallField, n: int, x, rng: random.Random, det_one: bool = False) -> list[int]:
    """P x P^-1 for a random invertible P."""
    P, Pinv = random_conjugator(F, n, rng, det_one)
    return mat_mul(F, n, mat_mul(F, n, P, x), Pinv)
