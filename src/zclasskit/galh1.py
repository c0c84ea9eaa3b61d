"""Twisted conjugacy for finite cyclic actions, and the mu_n class count.

A finite group A with an automorphism F of order r carries the twisted
relation a ~ b^-1 * a * F(b). Its orbits specialize to ordinary conjugacy
when F is trivial, and for F = Frobenius on the points of an algebraic
group over F_{q^r} they are the desk-scale stand-in for first Galois
cohomology of the cyclic quotient Gal(F_{q^r}/F_q).

Carriers are deliberately thin: a sorted tuple of hashable element keys
plus multiplication, inversion, and the twist. Builders are provided for
matrix subgroups (keys are matrices, twist is entrywise Frobenius), for
roots of unity inside a large field (keys are element codes; the field is
materialized but never enumerated), and for coset tables of quotients.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Sequence

from . import limits
from .errors import BoundExceeded, ConsistencyError
from .ff import (
    FieldCtx,
    _factorize,
    embed,
    make_field,
    poly_eval,
    power_class_count,
    prime_power,
)
from .grpcore import (
    QuotientGroup,
    Subgroup,
    _greedy_generators,
    instantiate,
    normalizer,
    subgroup_from_members,
)
from .matfq import Mat, charpoly, gl_conjugate_test, mat_embed, mat_frobenius

# all-pairs automorphism validation is quadratic; larger carriers must
# supply generators
PAIR_CHECK_LIMIT = 1000


@dataclass(frozen=True)
class TwistedGroup:
    """A finite group with a finite-order twisting automorphism."""

    elements: tuple
    mul: Callable
    inv: Callable
    identity: object
    frob: Callable
    order_of_F: int
    label: str = ""

    def __post_init__(self):
        if self.order_of_F < 1:
            raise ValueError("the automorphism order must be positive")
        elems = set(self.elements)
        if self.identity not in elems:
            raise ValueError("carrier lacks its identity")
        if {self.frob(a) for a in self.elements} != elems:
            raise ValueError("the twist is not a bijection of the carrier")
        for a in self.elements:
            b = a
            for _ in range(self.order_of_F):
                b = self.frob(b)
            if b != a:
                raise ValueError("the twist does not have the declared order")

    def _check_hom(self, gens=None) -> None:
        mul, frob = self.mul, self.frob
        if gens is None:
            if len(self.elements) <= PAIR_CHECK_LIMIT:
                gens = self.elements
            elif isinstance(self.elements[0], Mat):
                gens = _greedy_generators(self.elements, self.identity)
            else:
                raise ValueError(
                    f"carrier of size {len(self.elements)} needs generators "
                    "to validate the automorphism"
                )
        # a hom on elements x generators extends to all pairs by induction
        for a in self.elements:
            for b in gens:
                if frob(mul(a, b)) != mul(frob(a), frob(b)):
                    raise ValueError("the twist is not a homomorphism")

    def __repr__(self) -> str:
        tag = self.label or "twisted"
        return f"TwistedGroup({tag}, {len(self.elements)} elements, F^{self.order_of_F}=1)"


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
    T = TwistedGroup(
        tuple(sorted(set(elements), key=_sort_key)),
        mul,
        inv,
        identity,
        frob,
        order_of_F,
        label,
    )
    T._check_hom(gens)
    return T


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
        lambda a, b: a * b,
        lambda a: a.inverse(),
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

    def class_of(self, a):
        for rep, cls in zip(self.reps, self.classes):
            if a in cls:
                return rep
        raise KeyError("element not in the carrier")

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


def twisted_classes(T: TwistedGroup) -> TwistedClassSet:
    """Orbits of a ~ b^-1 * a * F(b); reps are the least seeds."""
    mul, inv, frob = T.mul, T.inv, T.frob
    remaining = set(T.elements)
    reps = []
    classes = []
    for seed in T.elements:
        if seed not in remaining:
            continue
        orbit = {mul(inv(b), mul(seed, frob(b))) for b in T.elements}
        if not orbit <= remaining:
            raise ConsistencyError("twisted orbits failed to partition the carrier")
        remaining -= orbit
        reps.append(seed)
        classes.append(tuple(sorted(orbit, key=_sort_key)))
    return TwistedClassSet(T, tuple(reps), tuple(classes))


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
    max_order: int | None = None,
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
        table = instantiate(family, ext, max_order=max_order)
        sub = subgroup_from_members(table, z_up)
        members = normalizer(table, sub).members
    else:
        members = list(normalizer_members)
    if c not in set(members):
        raise ConsistencyError("cocycle value missed the supplied normalizer")
    T = make_twisted(
        members,
        lambda x, y: x * y,
        lambda x: x.inverse(),
        Mat.identity(ext, a.n),
        lambda x: mat_frobenius(x, ctx.m),
        r,
        label=f"N({family.label()}-form)@F_{ext.name}",
    )
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
    """Code of an element of exact multiplicative order n; least power base."""
    cof = (big.q - 1) // n
    primes = _factorize(n)
    for x in range(2, min(big.q, 1 << 20)):
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
    big = make_field(p, m * r, max_order=p ** (m * r))
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

    The inclusion must be an F-equivariant homomorphism; a class dies when
    some ambient b solves b^-1 * image * F(b) = identity, found by scan.
    """
    for a in T.elements:
        if inclusion(T.frob(a)) != ambient.frob(inclusion(a)):
            raise ValueError("inclusion is not equivariant for the twists")
    if len(T.elements) > PAIR_CHECK_LIMIT and isinstance(T.elements[0], Mat):
        seconds = _greedy_generators(T.elements, T.identity)
    else:
        seconds = T.elements
    for a in T.elements:
        for b in seconds:
            if inclusion(T.mul(a, b)) != ambient.mul(inclusion(a), inclusion(b)):
                raise ValueError("inclusion is not a homomorphism")
    cs = twisted_classes(T)
    dead = []
    amb_set = set(ambient.elements)
    for rep in cs.reps:
        img = inclusion(rep)
        if img not in amb_set:
            raise ValueError("inclusion leaves the ambient carrier")
        for b in ambient.elements:
            if ambient.mul(ambient.inv(b), ambient.mul(img, ambient.frob(b))) == ambient.identity:
                dead.append(rep)
                break
    return tuple(dead)


def diagonalizer_over_ext(g: Mat, ext: FieldCtx) -> Mat:
    """A matrix over `ext` conjugating diag(roots of charpoly) to g (2x2 split case)."""
    if g.n != 2:
        raise ValueError("eigenbasis construction is for 2x2 matrices")
    g_up = mat_embed(g, ext)
    f_up = tuple(embed(g.ctx, ext, c).code for c in charpoly(g))
    roots = [a for a in range(ext.q) if poly_eval(ext, f_up, a) == 0]
    if len(roots) != 2:
        raise ValueError("characteristic polynomial does not split with two roots")
    D = Mat.diagonal(ext, roots)
    X = gl_conjugate_test(g_up, D)
    if X is None:
        raise ConsistencyError("split element failed to diagonalize")
    return X
