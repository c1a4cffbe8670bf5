"""Realisable problem documents for the benchmark workloads.

This module never imports ``fibresum``: the inputs are plain JSON
documents built from a seeded ``random.Random``, so every commit under
test receives byte-identical inputs and a change to the library cannot
change what is measured.

Every side drawn here could come from a closed oriented 4-manifold with a
characteristic canonical class K:

* ``K^2 = 2e + 3 sigma`` (required by the validator);
* ``b2+ - b1`` is odd, i.e. ``K^2 = sigma (mod 8)`` (van der Blij);
* an even ``p_parity`` forces ``sigma = 0 (mod 8)`` and an even or zero
  ``kbar_divisibility``, since a characteristic vector of an even
  unimodular form lies in twice the lattice;
* an odd ``p_parity`` forces an odd or unknown ``kbar_divisibility``;
* ``K.B = B^2 (mod 2)``.

Each workload draws from a fixed pool of items.  Item ``(stratum, j)`` is
generated from its own string-seeded RNG, so an item is the same
document in every run and for every benchmark seed; the benchmark seed
only chooses which items a run uses and in which order.  That keeps the
golden output digests (recorded once per pool item) valid for every seed.
"""

from __future__ import annotations

import random
from typing import Any

# Pool sizes per stratum, and how many items of each stratum one run uses.
POOL = {"scope_mix": 64, "genus_ladder": 4, "torsion_gated": 64}
PICK = {"scope_mix": 56, "genus_ladder": 3, "torsion_gated": 56}

SCOPE_GENERA = (0, 1, 2, 3, 4, 5)
LADDER_GENERA = (8, 10, 12)
TORSION_GENERA = (0, 1, 2, 3, 4)
STRATA = {
    "scope_mix": SCOPE_GENERA,
    "genus_ladder": LADDER_GENERA,
    "torsion_gated": TORSION_GENERA,
}

# E(m) # E(n) catalog sums, untwisted and twisted: the even forms.
CATALOG_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4), (2, 4), (4, 4))
CATALOG_TWISTS = ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (3, 5))

TORSION_CHOICES = ((), (2,), (3,), (2, 4), (6,))


def snf_diagonal(rows: list[list[int]]) -> list[int]:
    """Nonzero Smith invariant factors of an integer matrix.

    A diagonal-only reduction (no transforms), independent of the
    library's own Smith routine; used to keep drawn problems inside the
    forms scope and to size the t-vector.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        nz = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            p = a[t][t]
            for i in range(t + 1, m):
                q = a[i][t] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
            rest = [(abs(a[i][t]), i, None) for i in range(t + 1, m) if a[i][t]]
            rest += [(abs(a[t][j]), None, j) for j in range(t + 1, n) if a[t][j]]
            if not rest:
                bad = next(
                    (i for i in range(t + 1, m) if any(a[i][j] % p for j in range(t + 1, n))),
                    None,
                )
                if bad is None:
                    break
                a[t] = [x + y for x, y in zip(a[t], a[bad])]
                continue
            _, ri, cj = min(rest, key=lambda r: r[0])
            if ri is not None:
                a[t], a[ri] = a[ri], a[t]
            else:
                for row in a:
                    row[t], row[cj] = row[cj], row[t]
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def _signs(rng: random.Random, b1: int) -> tuple[int, int, str]:
    """``(b2_plus, b2_minus, p_parity)`` with ``b2+ - b1`` odd and the
    signature of an even form divisible by 8."""
    parity = rng.choice(("even", "odd"))
    b2_plus = rng.choice([x for x in range(1, 8) if (x - b1) % 2 == 1])
    if parity == "even":
        b2_minus = rng.choice([y for y in (b2_plus - 8, b2_plus, b2_plus + 8) if y >= 1])
    else:
        b2_minus = rng.randint(1, 8)
    return b2_plus, b2_minus, parity


def draw_side(
    rng: random.Random,
    name: str,
    genus: int,
    b1: int,
    entry_bound: int,
    *,
    h1_torsion: tuple[int, ...] = (),
    k: int = 1,
) -> dict[str, Any]:
    """One realisable side document with a random dense embedding."""
    two_g = 2 * genus
    b2_plus, b2_minus, parity = _signs(rng, b1)
    euler = 2 - 2 * b1 + b2_plus + b2_minus
    sigma = b2_plus - b2_minus
    b_sq = rng.randint(-5, 5)
    if parity == "even":
        kbar = rng.choice((None, 0, 2, 4))
    else:
        kbar = rng.choice((None, 1, 3))
    return {
        "name": name,
        "b1": b1,
        "h1_torsion": list(h1_torsion),
        "b2_plus": b2_plus,
        "b2_minus": b2_minus,
        "K_squared": 2 * euler + 3 * sigma,
        "K_dot_B": b_sq + 2 * rng.randint(-3, 3),
        "B_squared": b_sq,
        "genus": genus,
        "k": k,
        "embedding_free": [
            [rng.randint(-entry_bound, entry_bound) for _ in range(two_g)] for _ in range(b1)
        ],
        "embedding_torsion": [
            {"modulus": m, "row": [rng.randint(0, m - 1) for _ in range(two_g)]}
            for m in h1_torsion
        ],
        "p_parity": parity,
        "kbar_divisibility": "unknown" if kbar is None else kbar,
    }


def _in_scope_pair(rng: random.Random, genus: int, b1_max: int, entry_bound: int):
    """Two torsion-free indivisible sides whose sum has torsion-free H_1,
    plus the kernel dimension d of the stacked embedding."""
    while True:
        m = draw_side(rng, "M", genus, rng.randint(0, b1_max), entry_bound)
        n = draw_side(rng, "N", genus, rng.randint(0, b1_max), entry_bound)
        stacked = m["embedding_free"] + n["embedding_free"]
        diag = snf_diagonal(stacked)
        # With k = 1 on both sides H_1 of the sum is the cokernel of the
        # stacked embedding, so it is torsion free iff no factor exceeds 1.
        if all(x == 1 for x in diag):
            return m, n, 2 * genus - len(diag)


def scope_item(genus: int, j: int) -> dict[str, Any]:
    rng = random.Random(f"fibresum-bench/scope_mix/{genus}/{j}")
    m, n, d = _in_scope_pair(rng, genus, b1_max=6, entry_bound=5)
    doc: dict[str, Any] = {
        "M": m,
        "N": n,
        "gluing": {"a": [rng.randint(-10, 10) for _ in range(2 * genus)]},
    }
    if rng.random() < 0.5:
        doc["t"] = [rng.randint(-5, 5) for _ in range(d)]
    return doc


def ladder_item(genus: int, j: int) -> dict[str, Any]:
    rng = random.Random(f"fibresum-bench/genus_ladder/{genus}/{j}")
    while True:
        m = draw_side(rng, "M", genus, 2 * genus, 5)
        n = draw_side(rng, "N", genus, 2 * genus, 5)
        if all(x == 1 for x in snf_diagonal(m["embedding_free"] + n["embedding_free"])):
            return {"M": m, "N": n, "gluing": {"a": [rng.randint(-10, 10) for _ in range(2 * genus)]}}


def torsion_item(genus: int, j: int) -> dict[str, Any]:
    rng = random.Random(f"fibresum-bench/torsion_gated/{genus}/{j}")
    while True:
        sides = []
        for name in ("M", "N"):
            torsion = rng.choice(TORSION_CHOICES)
            sides.append(
                draw_side(rng, name, genus, rng.randint(0, 6), 5, h1_torsion=torsion, k=rng.randint(1, 4))
            )
        # Keep only problems the forms scope gate refuses on the sides alone.
        if any(s["k"] != 1 or s["h1_torsion"] for s in sides):
            m, n = sides
            return {"M": m, "N": n, "gluing": {"a": [rng.randint(-6, 6) for _ in range(2 * genus)]}}


def catalog_items() -> list[tuple[str, dict[str, Any]]]:
    return [
        (
            f"E{m}E{n}/{a[0]},{a[1]}",
            {"M": {"catalog": "E", "n": m}, "N": {"catalog": "E", "n": n}, "gluing": {"a": list(a)}},
        )
        for m, n in CATALOG_PAIRS
        for a in CATALOG_TWISTS
    ]


ITEM = {"scope_mix": scope_item, "genus_ladder": ladder_item, "torsion_gated": torsion_item}


def pool(workload: str) -> list[tuple[str, dict[str, Any]]]:
    """Every item a run of the workload may use, with its key."""
    items = [
        (f"g{g}/{j}", ITEM[workload](g, j))
        for g in STRATA[workload]
        for j in range(POOL[workload])
    ]
    if workload == "scope_mix":
        items += catalog_items()
    return items


def select(workload: str, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """The items one run uses, in run order.

    The same number of items comes from every genus stratum, so runs with
    different seeds do comparable work; scope_mix always adds every
    catalog sum.
    """
    rng = random.Random(seed)
    chosen = [
        (f"g{g}/{j}", ITEM[workload](g, j))
        for g in STRATA[workload]
        for j in sorted(rng.sample(range(POOL[workload]), PICK[workload]))
    ]
    if workload == "scope_mix":
        chosen += catalog_items()
    rng.shuffle(chosen)
    return chosen


# Run once before timing, in the measured process and in every set-up probe.
WARMUP = {
    "M": {"catalog": "E", "n": 2},
    "N": {"catalog": "E", "n": 2},
    "gluing": {"a": [1, 0]},
}
