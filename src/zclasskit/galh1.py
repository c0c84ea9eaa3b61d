"""Twisted conjugacy for finite cyclic actions, and the mu_n class count.

A finite group A with an automorphism F of order r carries the twisted
relation a ~ b^-1 * a * F(b). Its orbits specialize to ordinary conjugacy
when F is trivial, and for F = Frobenius on the points of an algebraic
group over F_{q^r} they are the desk-scale stand-in for first Galois
cohomology of the cyclic quotient Gal(F_{q^r}/F_q).

Carriers are deliberately thin: a sorted tuple of hashable element keys
plus multiplication, inversion, the twist, and a generating set. Builders
are provided for matrix subgroups (keys are matrices, twist is entrywise
Frobenius), for roots of unity inside a large field (keys are element
codes; the field is materialized but never enumerated), and for coset
tables of quotients.

Every carrier holds a certified generating set: supplied generators must
reach every element by a closure walk, else the least-key greedy
generators are taken. All work runs on it. The twist and the inclusions
of kernel_under_map are checked to be homomorphisms on elements x
generators, which is complete because the generators generate, and
twisted classes are orbits walked under a -> g^-1 * a * F(g).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Sequence

from . import limits
from .errors import BoundExceeded, ConsistencyError
from .ff import (
    FieldCtx,
    _factorize,
    _field,
    embed,
    make_field,
    poly_roots,
    power_class_count,
    prime_power,
)
from .grpcore import (
    QuotientGroup,
    Subgroup,
    _greedy_generators,
    instantiate,
    key_orbits,
    normalizer,
    subgroup_from_members,
)
from .matfq import Mat, charpoly, gl_conjugate_test, mat_embed, mat_frobenius


@dataclass(frozen=True)
class TwistedGroup:
    """A finite group, a finite-order twisting automorphism, and a certified
    generating set."""

    elements: tuple
    mul: Callable
    inv: Callable
    identity: object
    frob: Callable
    order_of_F: int
    label: str = ""
    gens: tuple = ()

    def __post_init__(self):
        if self.order_of_F < 1:
            raise ValueError("the automorphism order must be positive")
        elems = set(self.elements)
        if self.identity not in elems:
            raise ValueError("carrier lacks its identity")
        images = {a: self.frob(a) for a in self.elements}
        if set(images.values()) != elems:
            raise ValueError("the twist is not a bijection of the carrier")
        for a in self.elements:
            b = a
            for _ in range(self.order_of_F):
                b = images[b]
            if b != a:
                raise ValueError("the twist does not have the declared order")
        mul = self.mul
        if self.gens:
            steps = [lambda a, g=g: mul(a, g) for g in self.gens]
            if set(next(key_orbits([self.identity], steps))) != elems:
                raise ValueError("the supplied generators do not generate the carrier")
        else:
            gens = _greedy_generators(self.elements, self.identity, mul)
            object.__setattr__(self, "gens", tuple(gens))
        # the generators keep the carrier closed, so every product is a key of images
        _check_hom(self, images.__getitem__, mul, "the twist")

    def __repr__(self) -> str:
        tag = self.label or "twisted"
        return f"TwistedGroup({tag}, {len(self.elements)} elements, F^{self.order_of_F}=1)"


def _check_hom(T: TwistedGroup, fn: Callable, mul: Callable, what: str) -> None:
    """fn(a*s) == fn(a)*fn(s), with mul the target's product, over the
    elements a and the generators s of T. Since the generators generate,
    induction on word length extends this to all pairs."""
    images = [(s, fn(s)) for s in T.gens]
    for a in T.elements:
        fa = fn(a)
        for s, fs in images:
            if fn(T.mul(a, s)) != mul(fa, fs):
                raise ValueError(f"{what} is not a homomorphism")


def make_twisted(
    elements,
    mul,
    inv,
    identity,
    frob,
    order_of_F: int,
    *,
    gens=None,
    label: str = "",
) -> TwistedGroup:
    """The carrier on the distinct elements, sorted by key.

    Supplied generators must reach every element by a closure walk, else
    ValueError; without them the least-key greedy generators are taken.
    The twist must be a bijection of the stated order and a homomorphism,
    checked on elements x generators.
    """
    return TwistedGroup(
        tuple(sorted(set(elements), key=_sort_key)),
        mul,
        inv,
        identity,
        frob,
        order_of_F,
        label,
        tuple(gens or ()),
    )


def _sort_key(x):
    return x.data if isinstance(x, Mat) else x


def twisted_from_matrices(
    mats: Sequence[Mat], base: FieldCtx, r: int, *, gens=None, label: str = ""
) -> TwistedGroup:
    """Matrix carrier twisted by the entrywise Frobenius over `base`."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty carrier")
    ctx = mats[0].ctx
    if ctx.m != base.m * r or ctx.p != base.p:
        raise ValueError(
            f"matrices over F_{ctx.name} do not realize degree {r} over F_{base.name}"
        )
    n = mats[0].n

    def frob(a: Mat) -> Mat:
        return mat_frobenius(a, base.m)

    return make_twisted(
        mats,
        operator.mul,
        Mat.inverse,
        Mat.identity(ctx, n),
        frob,
        r,
        gens=gens,
        label=label,
    )


def twisted_from_quotient(
    Q: QuotientGroup, base: FieldCtx, r: int, *, label: str = ""
) -> TwistedGroup:
    """Coset carrier: keys are coset indices, the twist acts on representatives."""
    ctx = Q.reps[0].ctx

    def frob(i: int) -> int:
        return Q.coset_index(mat_frobenius(Q.reps[i], base.m))

    if ctx.m != base.m * r or ctx.p != base.p:
        raise ValueError("quotient representatives do not realize the declared degree")
    return make_twisted(
        range(Q.order),
        lambda i, j: Q.table[i][j],
        Q.inverse_index,
        Q.identity_index,
        frob,
        r,
        label=label,
    )


# ---------------------------------------------------------------------------
# twisted classes


@dataclass(frozen=True)
class TwistedClassSet:
    twisted: TwistedGroup
    reps: tuple
    classes: tuple

    @property
    def size(self) -> int:
        return len(self.reps)

    @cached_property
    def _rep_of(self) -> dict:
        return {x: rep for rep, cls in zip(self.reps, self.classes) for x in cls}

    def class_of(self, a):
        rep = self._rep_of.get(a)
        if rep is None:
            raise KeyError("element not in the carrier")
        return rep

    def cocycle_class_reps(self) -> tuple:
        """Reps of classes containing a value with trivial twisted norm.

        Twisted norms move by conjugation within a class, so membership is
        decided by scanning the whole class, not just its rep.
        """
        T = self.twisted
        out = []
        for rep, cls in zip(self.reps, self.classes):
            if any(_twisted_norm(T, x) == T.identity for x in cls):
                out.append(rep)
        return tuple(out)

    def summary(self) -> dict:
        return {
            "coefficients": self.twisted.label or "carrier",
            "realizing_degree": self.twisted.order_of_F,
            "class_count": self.size,
            "reps": [str(r) for r in self.reps],
        }


def _twisted_moves(T: TwistedGroup) -> list:
    """a -> g^-1 * a * F(g) for each generator g of T. These generate the
    twisted action, a right action: b2^-1 (b1^-1 a F(b1)) F(b2) is the
    move by b1 b2."""
    mul = T.mul
    return [lambda a, gi=T.inv(g), fg=T.frob(g): mul(mul(gi, a), fg) for g in T.gens]


def twisted_classes(T: TwistedGroup) -> TwistedClassSet:
    """Orbits of a ~ b^-1 * a * F(b), each walked under the generators from
    the least element no earlier orbit reached; reps are those seeds."""
    orbits = list(key_orbits(T.elements, _twisted_moves(T)))
    if sum(map(len, orbits)) != len(T.elements):
        raise ConsistencyError("twisted orbits failed to partition the carrier")
    reps = tuple(orbit[0] for orbit in orbits)
    classes = tuple(tuple(sorted(orbit, key=_sort_key)) for orbit in orbits)
    return TwistedClassSet(T, reps, classes)


# ---------------------------------------------------------------------------
# cocycles


@dataclass(frozen=True)
class Cocycle:
    value: object
    ambient: TwistedGroup


def _twisted_norm(T: TwistedGroup, x):
    acc = x
    cur = x
    for _ in range(T.order_of_F - 1):
        cur = T.frob(cur)
        acc = T.mul(acc, cur)
    return acc


def cocycle_check(c: Cocycle) -> bool:
    """Twisted norm c * F(c) * F^2(c) * ... * F^(r-1)(c) must be identity."""
    return _twisted_norm(c.ambient, c.value) == c.ambient.identity


def cocycle_of_form(
    family,
    ctx: FieldCtx,
    r: int,
    Zg: Subgroup,
    a: Mat,
    *,
    normalizer_members: Sequence[Mat] | None = None,
) -> Cocycle:
    """The cocycle a^-1 * F(a) attached to the form a * Zg * a^-1.

    Zg lives over the base field; a is an invertible matrix over F_{q^r}.
    The conjugated subgroup must be stable under the entrywise Frobenius
    (the form is defined over the base field), else ValueError. The value
    lands in the normalizer of the embedded Zg over F_{q^r}, which is
    scanned from an instantiated group unless `normalizer_members`
    supplies it in closed form.
    """
    if r < 1:
        raise ValueError("the extension degree must be positive")
    if Zg.members[0].ctx is not ctx:
        raise ValueError("the subgroup must live over the declared base field")
    ext = make_field(ctx.p, ctx.m * r)
    if a.ctx is not ext:
        raise ValueError(f"the conjugator must live over F_{ext.name}")
    if a.det() == 0:
        raise ValueError("the conjugator must be invertible")
    z_up = [mat_embed(m, ext) for m in Zg.members]
    ai = a.inverse()
    form = {a * z * ai for z in z_up}
    for h in form:
        if mat_frobenius(h, ctx.m) not in form:
            raise ValueError("the conjugated subgroup is not defined over the base field")
    c = ai * mat_frobenius(a, ctx.m)
    z_set = set(z_up)
    ci = c.inverse()
    if {c * z * ci for z in z_up} != z_set:
        raise ConsistencyError("cocycle value does not normalize the subgroup")
    if normalizer_members is None:
        table = instantiate(family, ext)
        sub = subgroup_from_members(table, z_up)
        members = normalizer(table, sub).members
    else:
        members = list(normalizer_members)
    if c not in set(members):
        raise ConsistencyError("cocycle value missed the supplied normalizer")
    T = twisted_from_matrices(members, ctx, r, label=f"N({family.label()}-form)@F_{ext.name}")
    co = Cocycle(c, T)
    if not cocycle_check(co):
        raise ConsistencyError("constructed value fails the cocycle condition")
    return co


# ---------------------------------------------------------------------------
# roots of unity


def _prime_to_p_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def _ord_mod(base: int, mod: int) -> int:
    if mod == 1:
        return 1
    if gcd(base, mod) != 1:
        raise ValueError(f"{base} is not invertible modulo {mod}")
    k, acc = 1, base % mod
    while acc != 1:
        acc = acc * base % mod
        k += 1
    return k


def _mu_generator(big: FieldCtx, n: int) -> int:
    """Code of an element of exact multiplicative order n; least power base,
    found early: x^((q-1)/n) has order n for a phi(n)/n share of units x.
    The codes below p are F_p^x, whose cof-th powers form its subgroup of
    order (p-1)/gcd(p-1, cof); when n does not divide that order every one
    of them fails, and the scan starts at p."""
    cof = (big.q - 1) // n
    primes = _factorize(n)
    p = big.p
    start = 2 if (p - 1) // gcd(p - 1, cof) % n == 0 else p
    for x in range(start, big.q):
        z = big.pow(x, cof)
        if z == 0 or big.pow(z, n) != 1:
            continue
        if all(big.pow(z, n // pr) != 1 for pr in primes):
            return z
    raise ConsistencyError(f"no element of order {n} found in F_{big.name}")


@dataclass(frozen=True)
class H1Result:
    q: int
    n: int
    n_coprime: int
    realizing_degree: int
    size: int
    reps: tuple[int, ...]

    def summary(self) -> dict:
        return {
            "coefficients": f"mu_{self.n}",
            "frobenius_power": self.q,
            "realizing_degree": self.realizing_degree,
            "class_count": self.size,
            "reps": list(self.reps),
        }


def _mu_twisted_classes(p: int, m: int, r: int, q: int, np: int, n: int) -> TwistedClassSet:
    """Twisted classes of mu_np realized inside F_{p^(m*r)} under x -> x^q."""
    big = _field(p, m * r)  # h1_mu_n has checked it against H1_FIELD_CAP
    zeta = _mu_generator(big, np) if np > 1 else 1
    mu = [1]
    for _ in range(np - 1):
        mu.append(big.mul(mu[-1], zeta))
    T = make_twisted(
        mu,
        big.mul,
        big.inv,
        1,
        lambda x: big.pow(x, q),
        r,
        gens=[zeta],
        label=f"mu_{n}@F_{big.name}",
    )
    return twisted_classes(T)


def h1_mu_n(q: int, n: int, r_realizing: int | None = None) -> H1Result:
    """Twisted class count of the n-th roots of unity under x -> x^q.

    In characteristic p only the prime-to-p part n' survives. The roots
    are realized inside F_{q^r} for the least r with n' | q^r - 1 (or the
    supplied realizing degree), then re-realized at degree 2r to confirm
    the count is stable, and the count is triple-checked: orbit
    enumeration, the power-class partition of the base field, and
    gcd(n, q - 1) must agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p, m = prime_power(q)
    np = _prime_to_p_part(n, p)
    r = _ord_mod(q, np) if np > 1 else 1
    if r_realizing is not None:
        if r_realizing < 1:
            raise ValueError("realizing degree must be positive")
        if np > 1 and (q**r_realizing - 1) % np:
            raise ValueError(f"mu_{np} does not live in F_{q}^{r_realizing}")
        r = r_realizing
    if q ** (2 * r) > limits.H1_FIELD_CAP:
        raise BoundExceeded(
            f"degree {2 * r} over F_{q} needed for the doubled-degree check has "
            f"order {q ** (2 * r)}, above H1_FIELD_CAP {limits.H1_FIELD_CAP}"
        )
    cs = _mu_twisted_classes(p, m, r, q, np, n)
    doubled = _mu_twisted_classes(p, m, 2 * r, q, np, n)
    if doubled.size != cs.size:
        raise ConsistencyError(
            f"mu_{n} count changed under degree doubling: {cs.size} at r={r}, "
            f"{doubled.size} at r={2 * r}"
        )
    pcc = power_class_count(make_field(p, m), n)
    expected = gcd(n, q - 1)
    if not cs.size == pcc.size == expected:
        raise ConsistencyError(
            f"mu_{n} counts disagree: twisted {cs.size}, power classes "
            f"{pcc.size}, gcd {expected}"
        )
    return H1Result(q, n, np, r, cs.size, tuple(cs.reps))


# ---------------------------------------------------------------------------
# kernels under equivariant maps


def kernel_under_map(
    T: TwistedGroup, ambient: TwistedGroup, inclusion: Callable
) -> tuple:
    """Twisted class reps of T that become distinguished in the ambient.

    The inclusion must be an F-equivariant homomorphism. A class dies when
    some ambient b solves b^-1 * image * F(b) = identity, that is when the
    image is b * F(b)^-1: when it lies in the twisted orbit of the identity,
    walked once.
    """
    for a in T.elements:
        if inclusion(T.frob(a)) != ambient.frob(inclusion(a)):
            raise ValueError("inclusion is not equivariant for the twists")
    _check_hom(T, inclusion, ambient.mul, "inclusion")
    amb_set = set(ambient.elements)
    trivial = set(next(key_orbits([ambient.identity], _twisted_moves(ambient))))
    dead = []
    for rep in twisted_classes(T).reps:
        img = inclusion(rep)
        if img not in amb_set:
            raise ValueError("inclusion leaves the ambient carrier")
        if img in trivial:
            dead.append(rep)
    return tuple(dead)


def diagonalizer_over_ext(g: Mat, ext: FieldCtx) -> Mat:
    """A matrix over `ext` conjugating diag(roots of charpoly) to g (2x2 split case)."""
    if g.n != 2:
        raise ValueError("eigenbasis construction is for 2x2 matrices")
    g_up = mat_embed(g, ext)
    f_up = tuple(embed(g.ctx, ext, c).code for c in charpoly(g))
    roots = poly_roots(ext, f_up)
    if len(roots) != 2:
        raise ValueError("characteristic polynomial does not split with two roots")
    D = Mat.diagonal(ext, roots)
    X = gl_conjugate_test(g_up, D)
    if X is None:
        raise ConsistencyError("split element failed to diagonalize")
    return X
