"""Shared builders for the test suite: valid sides, random problems that
pass the forms scope gate, random unimodular matrices, the matrix helpers
that only tests need, an exact check of a Smith form, the full
presentation of H_1 of a sum and its Mayer-Vietoris sequence as oracles,
and the two presentations of the cokernel-equivalence lemma."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from operator import mul
from pathlib import Path
from typing import Sequence

import fibresum
from fibresum import (
    AbGroup,
    DocumentError,
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    ManifoldSide,
    analyse,
    cokernel_presentation,
    elliptic_surface,
    intlat,
)


def make_side(
    name: str,
    *,
    genus: int,
    b1: int = 0,
    b2_plus: int = 2,
    b2_minus: int = 2,
    K_dot_B: int = 0,
    B_squared: int = 0,
    embedding=None,
    h1_torsion=(),
    embedding_torsion=None,
    k: int = 1,
    p_parity: str = "unknown",
    kbar_divisibility=None,
) -> ManifoldSide:
    """A side with K_squared forced to 2e+3sigma, hence always valid as
    long as the remaining arguments are consistent."""
    e = 2 - 2 * b1 + b2_plus + b2_minus
    sigma = b2_plus - b2_minus
    if embedding is None:
        embedding = IntMatrix.zeros(b1, 2 * genus)
    if embedding_torsion is None:
        embedding_torsion = tuple((m, (0,) * (2 * genus)) for m in h1_torsion)
    return ManifoldSide(
        name=name,
        b1=b1,
        h1_torsion=tuple(h1_torsion),
        b2_plus=b2_plus,
        b2_minus=b2_minus,
        K_squared=2 * e + 3 * sigma,
        K_dot_B=K_dot_B,
        B_squared=B_squared,
        genus=genus,
        k=k,
        embedding_free=embedding,
        embedding_torsion=tuple(embedding_torsion),
        p_parity=p_parity,
        kbar_divisibility=kbar_divisibility,
    )


def run_python(args) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a fresh interpreter that imports this
    checkout's fibresum package."""
    src = str(Path(fibresum.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
        check=False,
    )


def elliptic_problem(m: int, n: int, a=(0, 0), t=None) -> FibreSumProblem:
    return FibreSumProblem(
        M=elliptic_surface(m), N=elliptic_surface(n), gluing=GluingClass(tuple(a)), t=t
    )


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def transpose(A: IntMatrix) -> IntMatrix:
    return IntMatrix(A.cols, A.rows, tuple(A.row(i)[j] for j in range(A.cols) for i in range(A.rows)))


def column(A: IntMatrix, j: int) -> tuple[int, ...]:
    return tuple(A.row(i)[j] for i in range(A.rows))


def matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    assert A.cols == B.rows
    columns = [column(B, j) for j in range(B.cols)]
    return IntMatrix(A.rows, B.cols, tuple(sum(map(mul, A.row(i), c)) for i in range(A.rows) for c in columns))


def block_diag(blocks) -> IntMatrix:
    """The blocks along the diagonal of one matrix, zeros elsewhere."""
    cols = sum(b.cols for b in blocks)
    rows, j0 = [], 0
    for b in blocks:
        rows += [[0] * j0 + list(b.row(i)) + [0] * (cols - j0 - b.cols) for i in range(b.rows)]
        j0 += b.cols
    return IntMatrix.from_rows(rows, cols=cols)


def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix(
        rows, cols, tuple(rng.randint(-bound, bound) for _ in range(rows * cols))
    )


def random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """Product of elementary row operations; |det| = 1 by construction."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 4):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            rows[a], rows[b] = rows[b], rows[a]
        if rng.random() < 0.2:
            c = rng.randrange(n)
            rows[c] = [-x for x in rows[c]]
    return IntMatrix.from_rows(rows, cols=n)


def checked_smith_form(A: IntMatrix) -> tuple[int, ...]:
    """The diagonal of A's Smith form from ``intlat._reduce`` with V,
    checked exactly without U.

    D is diagonal, its diagonal a nonnegative divisibility chain with zeros
    last, and |det V| = 1.  A unimodular U with U A V = D exists iff the
    columns of A V past the rank r are 0, column j < r is d_j times a
    vector c_j, and the m x r matrix [c_j] extends to a basis of Z^m, that
    is has every invariant factor 1 (by sympy, an independent oracle)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    d, v = intlat._reduce(A, track_v=True)
    m, n = A.rows, A.cols
    diagonal = tuple(d[i][i] for i in range(min(m, n)))
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    assert all(x >= 0 for x in diagonal)
    r = sum(1 for x in diagonal if x)
    assert all(diagonal[:r]) and not any(diagonal[r:])
    assert all(b % a == 0 for a, b in zip(diagonal[:r], diagonal[1:r]))
    V = IntMatrix.from_rows(v, cols=n)
    assert abs(V.det()) == 1
    av = matmul(A, V).to_rows()
    assert all(av[i][j] == 0 for i in range(m) for j in range(r, n))
    assert all(av[i][j] % diagonal[j] == 0 for i in range(m) for j in range(r))
    if r:
        c = [[av[i][j] // diagonal[j] for j in range(r)] for i in range(m)]
        assert [int(x) for x in invariant_factors(Matrix(c))] == [1] * r
    return diagonal


def random_valid_side(
    rng: random.Random,
    name: str,
    genus: int,
    *,
    b1_max: int = 6,
    entry_bound: int = 5,
    torsion_free: bool = True,
) -> ManifoldSide | None:
    """A random side, or None when the draw breaks a rule of a side (an
    even p_parity with sigma != 0 mod 8); the draws made do not depend on
    which."""
    b1 = rng.randint(0, b1_max)
    b2_plus = rng.randint(1, 6)
    b2_minus = rng.randint(1, 6)
    B_squared = rng.randint(-5, 5)
    K_dot_B = B_squared + 2 * rng.randint(-3, 3)
    if torsion_free:
        h1_torsion: tuple[int, ...] = ()
        k = 1
    else:
        h1_torsion = rng.choice(((), (2,), (3,), (2, 4), (6,)))
        k = rng.randint(1, 4)
    embedding = random_matrix(rng, b1, 2 * genus, entry_bound)
    embedding_torsion = tuple(
        (m, tuple(rng.randint(0, m - 1) for _ in range(2 * genus))) for m in h1_torsion
    )
    p_parity = rng.choice(("even", "odd"))
    kbar_divisibility = rng.choice((None, 0, 1, 2, 3))
    try:
        return make_side(
            name,
            genus=genus,
            b1=b1,
            b2_plus=b2_plus,
            b2_minus=b2_minus,
            K_dot_B=K_dot_B,
            B_squared=B_squared,
            embedding=embedding,
            h1_torsion=h1_torsion,
            embedding_torsion=embedding_torsion,
            k=k,
            p_parity=p_parity,
            kbar_divisibility=kbar_divisibility,
        )
    except DocumentError:
        return None


def random_scope_problem(
    rng: random.Random,
    *,
    g_max: int = 5,
    b1_max: int = 6,
    entry_bound: int = 5,
    a_bound: int = 10,
    with_t: bool = True,
) -> FibreSumProblem:
    """A random validated problem inside the forms scope (indivisible
    surfaces, torsion-free homology of both sides and of the sum)."""
    while True:
        genus = rng.randint(0, g_max)
        side_m = random_valid_side(rng, "M", genus, b1_max=b1_max, entry_bound=entry_bound)
        side_n = random_valid_side(rng, "N", genus, b1_max=b1_max, entry_bound=entry_bound)
        a = tuple(rng.randint(-a_bound, a_bound) for _ in range(2 * genus))
        if side_m is None or side_n is None:
            continue
        problem = FibreSumProblem(M=side_m, N=side_n, gluing=GluingClass(a), t=None)
        if analyse(problem).scope_violations:
            continue
        if with_t and rng.random() < 0.5:
            stacked = IntMatrix.vstack([side_m.embedding_free, side_n.embedding_free])
            d = 2 * genus - intlat.rank(stacked)
            t = tuple(rng.randint(-5, 5) for _ in range(d))
            problem = FibreSumProblem(M=side_m, N=side_n, gluing=GluingClass(a), t=t)
        return problem


def random_problem_any(rng: random.Random, *, g_max: int = 4) -> FibreSumProblem:
    """A random validated problem with no scope restriction (torsion and
    divisible surface classes allowed)."""
    while True:
        genus = rng.randint(0, g_max)
        side_m = random_valid_side(rng, "M", genus, torsion_free=False)
        side_n = random_valid_side(rng, "N", genus, torsion_free=False)
        a = tuple(rng.randint(-6, 6) for _ in range(2 * genus))
        if side_m is not None and side_n is not None:
            return FibreSumProblem(M=side_m, N=side_n, gluing=GluingClass(a), t=None)


def full_presentation_h1(problem: FibreSumProblem) -> AbGroup:
    """H_1 of the sum as the cokernel of its full presentation.

    Generators, in order: those of H_1(M) and of H_1(N) (free before
    torsion on each side), then Z/n with n = gcd(k_M, k_N).  Each has its
    order (0 if free) and its images of the surface basis curves, the
    pairings with the gluing class for Z/n.  Each nonzero order gives one
    relation column, and each surface basis curve one more: its images
    under both embeddings together with its pairing against the gluing
    class.
    """
    M, N = problem.M, problem.N
    generators: list[tuple[int, Sequence[int]]] = []
    for side in (M, N):
        generators += [(0, row) for row in side.embedding_free.to_rows()]
        generators += side.embedding_torsion
    generators.append((math.gcd(M.k, N.k), problem.gluing.a))
    relations = [i for i, (order, _) in enumerate(generators) if order]
    presentation = IntMatrix.from_rows(
        [
            [order if j == i else 0 for j in relations] + list(images)
            for i, (order, images) in enumerate(generators)
        ],
        cols=len(relations) + 2 * problem.genus,
    )
    return cokernel_presentation(presentation)


def _phi_action_h1(g: int, a: Sequence[int]) -> IntMatrix:
    """Action of the gluing diffeomorphism on H_1 of the boundary, in the
    basis (gamma_1, ..., gamma_2g, sigma): each gamma_i picks up a_i
    meridians and the meridian reverses sign.  Images are columns: column
    j is the image of basis element j, so gamma_i maps to column i,
    gamma_i + a_i*sigma, and sigma to the last column, -sigma."""
    n = 2 * g + 1
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(2 * g)]
    rows.append([*a, -1])
    return IntMatrix.from_rows(rows, cols=n)


def mayer_vietoris_h1(problem: FibreSumProblem) -> AbGroup:
    """H_1 of X = M° ∪ N°, glued along Sigma x S^1, as the cokernel of
    H_1(boundary) -> H_1(M°) + H_1(N°), x |-> i_M(x) - i_N(phi_* x).

    The generators of H_1(side°) are the side's free generators, its
    torsion generators and its meridian (of order k).  i_side sends
    gamma_j to column j of the side's free and torsion embedding and the
    meridian to the side's own meridian; phi_* x is column x of
    ``_phi_action_h1``.  Each generator of finite order adds its order
    relation.
    """
    g = problem.genus
    n = 2 * g + 1  # the boundary basis gamma_1..gamma_2g, meridian

    def generators(side):
        """(order, images of the n boundary classes) per generator."""
        gens = [(0, row + [0]) for row in side.embedding_free.to_rows()]
        gens += [(m, list(row) + [0]) for m, row in side.embedding_torsion]
        gens.append((side.k, [0] * (2 * g) + [1]))
        return gens

    gens_m, gens_n = generators(problem.M), generators(problem.N)
    phi = _phi_action_h1(g, problem.gluing.a)
    relations = []
    for x in range(n):
        image = column(phi, x)
        relations.append(
            [row[x] for _, row in gens_m]
            + [-sum(r * y for r, y in zip(row, image)) for _, row in gens_n]
        )
    orders = [order for order, _ in gens_m + gens_n]
    relations += [
        [order if j == i else 0 for j in range(len(orders))] for i, order in enumerate(orders) if order
    ]
    presentation = IntMatrix.from_rows(
        [[rel[i] for rel in relations] for i in range(len(orders))], cols=len(relations)
    )
    return cokernel_presentation(presentation)


def h1_case(analysis) -> str:
    """The kind of draw, by the data H_1 of the sum is built from: "a"
    when the meridian dies and neither side has H_1 torsion (gcd(k_M, k_N)
    = 1), else "c" when coker S has torsion (the rim tori carry the
    invariant factors of S), else "b0" or "b+" as d = 0 or d > 0."""
    M, N = analysis.problem.M, analysis.problem.N
    if not M.h1_torsion and not N.h1_torsion and math.gcd(M.k, N.k) == 1:
        return "a"
    if analysis.rim_tori.torsion:
        return "c"
    return "b0" if analysis.d == 0 else "b+"


# -- the two presentations of the cokernel-equivalence lemma -----------------


def lemma_cokernels(
    rng: random.Random, *, max_rank: int = 4, max_k: int = 6
) -> tuple[AbGroup, AbGroup]:
    """Cokernels of the maps psi and psi' built from random data.

    psi : H + Z -> G + Z/kM + Z/kN, (x, a) |-> (f(x), a, h(x) - a);
    psi': H     -> G + Z/n,          x     |-> (f(x), h(x)), n = gcd(kM, kN).
    G is presented by a random relation matrix, H is free.
    """
    import math

    q = rng.randint(0, max_rank)
    c = rng.randint(0, max_rank)
    p = rng.randint(0, 3)
    P = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(q)]
    F = [[rng.randint(-4, 4) for _ in range(p)] for _ in range(q)]
    h = [rng.randint(-4, 4) for _ in range(p)]
    k_m = rng.randint(1, max_k)
    k_n = rng.randint(1, max_k)
    n = math.gcd(k_m, k_n)

    # psi: generators are the q generators of G plus one each for Z/kM, Z/kN.
    rows_psi = []
    for i in range(q):
        rows_psi.append(P[i] + [0, 0] + F[i] + [0])
    rows_psi.append([0] * c + [k_m, 0] + [0] * p + [1])
    rows_psi.append([0] * c + [0, k_n] + list(h) + [-1])
    psi = IntMatrix.from_rows(rows_psi, cols=c + 2 + p + 1)

    rows_psi_prime = []
    for i in range(q):
        rows_psi_prime.append(P[i] + [0] + F[i])
    rows_psi_prime.append([0] * c + [n] + list(h))
    psi_prime = IntMatrix.from_rows(rows_psi_prime, cols=c + 1 + p)

    return cokernel_presentation(psi), cokernel_presentation(psi_prime)
