"""Workload inputs, generated from a seed, and the oracle that checks each answer.

This module does not import zclasskit: inputs and expected answers come
from pinned constants or from data the benchmark chose itself. Every
operation is a JSON-serialisable dict; its "kind" names the call the child
process makes (see child.py) and the check below.
"""
from __future__ import annotations

import math
import random

import fq

WORKLOADS = ("verify-paper", "group-table", "twisted-grid", "structural")

# sha256 of `zclasskit verify <suite> --format json --no-footer` stdout at
# the commit that introduced this benchmark; stdout must stay byte-identical
VERIFY = {
    "paper": (
        "81aa0af22eddc09414add7be9575618aa5f0a550e4689faf7b86e6301faec56e",
        ("gl2-zclasses", "sl2-unipotent", "sl3-unipotent", "sln-unipotent-forms",
         "tori-gln", "borel-counterexample", "heisenberg", "curious", "dihedral",
         "normalizer-structure", "fiber-bound", "h1-triple"),
    ),
    "smoke": (
        "dda398f4b104d9aaafabe10e01de76c2e04ae838782181afbcd7583e10614827",
        ("gl2-zclasses", "sl2-unipotent", "borel-counterexample", "curious"),
    ),
}

# (family, n, p, m, |G|, pinned z-class count). GL2(F_q) and SL2(F_q), q odd,
# have 4 z-classes; Heisenberg-3(F_q) has q + 2 (the center, then one block
# per line of F_q^2, each noncentral centralizer being normal). Tables of
# a few hundred elements keep one repetition near 3 s, so a run holds
# enough repetitions for a steady median.
TABLES = (
    ("gl", 2, 5, 1, 480, 4),
    ("sl", 2, 11, 1, 1320, 4),
    ("heisenberg", 3, 5, 1, 125, 7),
)
TINY_TABLES = (("gl", 2, 3, 1, 48, 4),)

H1_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
H1_MAX_N = 16
H1_FIELD_CAP = 2**62  # zclasskit.galh1 refuses doubled-degree fields above this

# (n, q) ambients of the structural workload
GL_CASES = ((3, 5), (3, 7), (3, 8), (3, 9), (4, 3), (4, 5))
SL_CASES = ((3, 5), (3, 7), (4, 5), (4, 7))


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The operations of one run; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "verify-paper":
        return _verify_ops("smoke" if tiny else "paper")
    if workload == "group-table":
        if tiny:
            return _group_table_ops(rng, TINY_TABLES, pool=3, queries=2)
        return _group_table_ops(rng, TABLES, pool=6, queries=8)
    if workload == "twisted-grid":
        return _twisted_grid_ops(rng, (2, 3, 4, 5) if tiny else H1_QS, 4 if tiny else H1_MAX_N)
    if workload == "structural":
        if tiny:
            return _structural_ops(rng, GL_CASES[:1], SL_CASES[:1], gl_pairs=3, sl_pairs=2)
        return _structural_ops(rng, GL_CASES, SL_CASES, gl_pairs=18, sl_pairs=12)
    raise ValueError(f"unknown workload {workload!r}: choose from {', '.join(WORKLOADS)}")


# -- verify-paper --------------------------------------------------------------


def _verify_ops(suite: str) -> list[dict]:
    digest, ids = VERIFY[suite]
    argv = ["verify", suite, "--format", "json", "--no-footer"]
    return [{"kind": "verify", "argv": argv, "expect_digest": digest, "experiments": list(ids)}]


# -- group-table ---------------------------------------------------------------


def _group_table_ops(rng: random.Random, tables, pool: int, queries: int) -> list[dict]:
    ops = []
    for family, n, p, m, order, zclasses in tables:
        key = f"{family}:{n}@{p}^{m}"
        ops.append({"kind": "partition", "table": key, "family": family, "n": n, "p": p,
                    "m": m, "expect_order": order, "expect_zclasses": zclasses})
        # queries draw from a small pool, so the same element is asked about again
        ids = rng.sample(range(order), pool)
        queries_ = [{"kind": "centralizer", "table": key, "g": rng.choice(ids),
                     "expect_order": order} for _ in range(queries)]
        queries_ += [{"kind": "z_equivalent", "table": key, "g": rng.choice(ids),
                      "h": rng.choice(ids)} for _ in range(queries)]
        rng.shuffle(queries_)
        ops.extend(queries_)
    return ops


# -- twisted-grid --------------------------------------------------------------


def _prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = round(math.log(q, p))
    if p**m != q:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def h1_in_bound(q: int, n: int) -> bool:
    """Whether h1_mu_n(q, n) stays under the library's doubled-degree field cap."""
    p, _ = _prime_power(q)
    while n % p == 0:
        n //= p
    r = 1
    if n > 1:
        acc = q % n
        while acc != 1:
            acc = acc * q % n
            r += 1
    return q ** (2 * r) <= H1_FIELD_CAP


def _twisted_grid_ops(rng: random.Random, qs, max_n: int) -> list[dict]:
    ops = [{"kind": "h1", "q": q, "n": n, "expect": math.gcd(n, q - 1)}
           for q in qs for n in range(1, max_n + 1) if h1_in_bound(q, n)]
    rng.shuffle(ops)
    return ops


# -- structural ----------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for d in range(min(n, largest), 0, -1):
        for rest in _partitions(n - d, d):
            yield (d,) + rest


def _realisations(q: int, torus_type) -> int:
    """How many squarefree characteristic polynomials have this factor-degree type."""
    return math.prod(math.comb(fq.irreducible_count(q, d), torus_type.count(d))
                     for d in set(torus_type))


def _charpoly_of_type(F: fq.SmallField, torus_type, rng: random.Random) -> tuple[int, ...]:
    """A random product of distinct irreducibles (x excluded) of the given degrees."""
    while True:
        factors = [fq.random_irreducible(F, d, rng) for d in torus_type]
        if len(set(factors)) == len(factors):
            break
    f = (1,)
    for g in sorted(factors):
        f = fq.poly_mul(F, f, g)
    return f


def _gl_pair(F: fq.SmallField, n: int, k: int, rng: random.Random) -> dict:
    """Pair k: k % 3 == 0 conjugate, 1 same torus type but not conjugate, 2 different type.

    The torus types take turns rather than being drawn, so every seed asks
    the same mix and only the polynomials and conjugators change with it.
    """
    types = [t for t in _partitions(n) if _realisations(F.q, t) >= 2]
    third, turn = k % 3, k // 3
    t1 = types[turn % len(types)]
    f1 = _charpoly_of_type(F, t1, rng)
    if third == 0:
        t2, f2 = t1, f1
    elif third == 1:
        t2, f2 = t1, f1
        while f2 == f1:
            f2 = _charpoly_of_type(F, t1, rng)
    else:
        others = [t for t in types if t != t1]
        t2 = others[turn % len(others)]
        f2 = _charpoly_of_type(F, t2, rng)
    return {"kind": "gl_pair", "n": n, "p": F.p, "m": F.m, "modulus": list(F.modulus),
            "a": fq.conjugate(F, n, fq.companion(F, f1), rng),
            "b": fq.conjugate(F, n, fq.companion(F, f2), rng),
            "expect_conj": f1 == f2, "expect_zeq": t1 == t2}


def _regular_unipotent(n: int, b: int) -> list[int]:
    """Upper unitriangular, superdiagonal (b, 1, ..., 1): zclasskit's u_b."""
    data = [int(i == j) for i in range(n) for j in range(n)]
    data[1] = b
    for i in range(1, n - 1):
        data[i * n + i + 1] = 1
    return data


def _sl_pair(F: fq.SmallField, n: int, rng: random.Random) -> dict:
    b, b2 = rng.randrange(1, F.q), rng.randrange(1, F.q)
    # u_b ~ u_b' in SL_n(F_q) exactly when b/b' is an n-th power (q prime here)
    ratio = F.mul(b, F.inv(b2))
    nth_power = F.pow(ratio, (F.q - 1) // math.gcd(n, F.q - 1)) == 1
    return {"kind": "sl_pair", "n": n, "p": F.p, "m": F.m, "modulus": list(F.modulus),
            "a": _regular_unipotent(n, b),
            "b": fq.conjugate(F, n, _regular_unipotent(n, b2), rng, det_one=True),
            "expect_conj": nth_power}


def _structural_ops(rng: random.Random, gl_cases, sl_cases, gl_pairs: int, sl_pairs: int) -> list[dict]:
    ops = []
    for n, q in gl_cases:
        F = fq.SmallField(q)
        ops += [_gl_pair(F, n, k, rng) for k in range(gl_pairs)]
    for n, q in sl_cases:
        F = fq.SmallField(q)
        ops += [_sl_pair(F, n, rng) for _ in range(sl_pairs)]
    rng.shuffle(ops)
    return ops


# -- oracles -------------------------------------------------------------------


def attempted(op: dict) -> int:
    """Operations one entry stands for: a verify call runs a whole suite."""
    return len(op["experiments"]) if op["kind"] == "verify" else 1


def check(op: dict, answer: dict) -> list[str]:
    """One message per failed operation; empty when the answer is right."""
    if "error" in answer:
        return [answer["error"]] * attempted(op)
    kind = op["kind"]
    if kind == "verify":
        ids = op["experiments"]
        if answer["rc"] != 0 or answer["digest"] != op["expect_digest"]:
            why = f"exit code {answer['rc']}, stdout digest {answer['digest']}"
            return [f"{i}: {why}" for i in ids]
        if [i for i, _ in answer["verdicts"]] != ids:
            return [f"experiment list changed: {answer['verdicts']}"] * len(ids)
        return [f"{i}: verdict {v}" for i, v in answer["verdicts"] if v != "pass"]
    if kind == "partition":
        got = (answer["order"], answer["zclasses"])
        want = (op["expect_order"], op["expect_zclasses"])
        return [] if got == want else [f"(order, z-classes) {got}, want {want}"]
    if kind == "centralizer":
        product = answer["z_order"] * answer["class_size"]
        return [] if product == op["expect_order"] else [
            f"|Z(g)| * |cl(g)| = {answer['z_order']} * {answer['class_size']}, want |G| = {op['expect_order']}"]
    if kind == "z_equivalent":
        return [] if answer["equivalent"] == answer["same_block"] else [
            f"z_equivalent {answer['equivalent']}, partition blocks say {answer['same_block']}"]
    if kind == "h1":
        return [] if answer["size"] == op["expect"] else [f"size {answer['size']}, want {op['expect']}"]
    if kind == "gl_pair":
        got = (answer["conj"], answer["zeq"])
        want = (op["expect_conj"], op["expect_zeq"])
        return [] if got == want else [f"(conjugate, z-equivalent) {got}, want {want}"]
    if kind == "sl_pair":
        return [] if answer["conj"] == op["expect_conj"] else [
            f"SL conjugate {answer['conj']}, want {op['expect_conj']}"]
    raise ValueError(f"unknown operation kind {kind!r}")
