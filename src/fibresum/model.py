"""Data model for fibre-sum problems.

A problem is two manifold sides glued along a genus-g surface, plus the
gluing vector a (pairings of the gluing class with a basis of the surface's
first homology) and an optional t-vector of rim coefficients.  Sides are
described purely algebraically: Betti data, the torsion of H_1, pairing
numbers of the canonical class, and the matrix of the embedding on first
homology.

K.Sigma is deliberately not an input: the adjunction formula forces it to
2g-2 for symplectic surfaces, and storing it would invite inconsistent
documents.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Sequence

from .abgroups import AbGroup
from .intlat import IntMatrix, as_ints

__all__ = [
    "ManifoldSide",
    "GluingClass",
    "FibreSumProblem",
    "BettiNumbers",
    "DocumentError",
    "validate_side",
    "validate_problem",
    "elliptic_surface",
    "parse_problem",
    "side_to_dict",
    "problem_to_dict",
]

PARITIES = ("even", "odd", "unknown")

MAX_IMPLIED_CELLS = 1 << 20
"""The most cells a document implies but does not spell out.

Omitting ``embedding_free`` or ``embedding_torsion`` makes :func:`parse_side`
allocate zero rows before any rule bounds b1, the genus or the torsion
count.  The genus alone implies a 2g x 2g transform in the kernel
computation and a 2g x 2g basis in the report, so :func:`validate_side`
bounds (2g)^2 by the same number (g <= 512).  Without both bounds a short
document could ask for more memory than exists."""


class DocumentError(ValueError):
    """A problem document violates the schema, or a problem the model's rules."""

    def __init__(self, messages: Sequence[str]):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass(frozen=True)
class ManifoldSide:
    """One summand of the fibre sum.

    ``k`` is the divisibility of the surface class, ``embedding_free`` the
    ``b1 x 2g`` matrix of the embedding on the free part of first homology
    (columns indexed by the surface basis gamma_1..gamma_2g), and
    ``embedding_torsion`` one (modulus, row) pair per torsion factor of
    H_1.  ``kbar_divisibility`` is the divisibility of the perpendicular
    part of the canonical class, with 0 meaning the zero class (gcd(0, x)
    = x semantics) and None meaning unknown.
    """

    name: str
    b1: int
    h1_torsion: tuple[int, ...]
    b2_plus: int
    b2_minus: int
    K_squared: int
    K_dot_B: int
    B_squared: int
    genus: int
    k: int
    embedding_free: IntMatrix
    embedding_torsion: tuple[tuple[int, tuple[int, ...]], ...] = ()
    p_parity: str = "unknown"
    kbar_divisibility: int | None = None

    def __post_init__(self) -> None:
        kbar = () if self.kbar_divisibility is None else (self.kbar_divisibility,)
        as_ints((*(getattr(self, key) for key in _SIDE_REQUIRED), *kbar), "side numbers")
        object.__setattr__(self, "h1_torsion", as_ints(self.h1_torsion, "h1_torsion entries"))
        torsion = tuple((m, as_ints(row, "embedding_torsion rows")) for m, row in self.embedding_torsion)
        as_ints((m for m, _ in torsion), "embedding_torsion moduli")
        object.__setattr__(self, "embedding_torsion", torsion)

    @property
    def b2(self) -> int:
        return self.b2_plus + self.b2_minus

    @property
    def euler(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def signature(self) -> int:
        return self.b2_plus - self.b2_minus


@dataclass(frozen=True)
class GluingClass:
    """The integer vector a with a_i the pairing of the gluing class with
    the i-th surface basis curve; it determines the gluing diffeomorphism
    up to isotopy."""

    a: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_ints(self.a, "gluing vector entries"))


@dataclass(frozen=True)
class FibreSumProblem:
    """Two sides, a gluing vector, and an optional t-vector.

    ``t`` is the vector of symmetric-basis rim coefficients (pairings of
    the two canonical classes with matched bounding surfaces); ``None``
    means "default to zero", which is only correct under geometric
    hypotheses such as vanishing-cycle disks in cusp neighbourhoods.  The
    reports carry an explicit warning when the default is used.
    """

    M: ManifoldSide
    N: ManifoldSide
    gluing: GluingClass
    t: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.t is not None:
            object.__setattr__(self, "t", as_ints(self.t, "t entries"))

    @property
    def genus(self) -> int:
        return self.M.genus


@dataclass(frozen=True)
class BettiNumbers:
    """b1 and b2+- of the sum, its kernel rank d, and what follows from them."""

    b1: int
    b2_plus: int
    b2_minus: int
    d: int

    b0 = b4 = 1

    @property
    def b2(self) -> int:
        return self.b2_plus + self.b2_minus

    @property
    def b3(self) -> int:
        return self.b1

    @property
    def e(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def sigma(self) -> int:
        return self.b2_plus - self.b2_minus


def validate_side(side: ManifoldSide) -> list[str]:
    """All violated invariants of one side; empty means valid."""
    v: list[str] = []
    two_g = 2 * side.genus
    if side.b1 < 0:
        v.append("b1 must be nonnegative")
    if side.genus < 0:
        v.append("genus must be nonnegative")
    elif two_g * two_g > MAX_IMPLIED_CELLS:
        v.append(f"genus = {side.genus} implies {two_g} x {two_g} cells, more than {MAX_IMPLIED_CELLS}")
    if side.k < 1:
        v.append("k must be a positive integer")
    if side.b2 < 2:
        v.append(f"b2 >= 2 required (the surface and its dual section must exist), got b2 = {side.b2}")
    if side.b2_plus < 1 or side.b2_minus < 1:
        v.append(
            "b2_plus >= 1 and b2_minus >= 1 required "
            "(the nucleus block [[B^2,1],[1,0]] has signature zero)"
        )
    expected_k2 = 2 * side.euler + 3 * side.signature
    if side.K_squared != expected_k2:
        v.append(f"K_squared != 2e+3*sigma (needs {expected_k2}, got {side.K_squared})")
    if (side.K_dot_B - side.B_squared) % 2 != 0:
        v.append(
            f"K_dot_B = B_squared (mod 2) required since K is characteristic "
            f"(got {side.K_dot_B} vs {side.B_squared})"
        )
    if not AbGroup(0, side.h1_torsion).is_normal_form():
        v.append(f"h1_torsion must be a divisibility chain of factors >= 2, got {list(side.h1_torsion)}")
    if side.embedding_free.rows != side.b1 or side.embedding_free.cols != two_g:
        v.append(
            f"embedding_free must be {side.b1} x {two_g}, "
            f"got {side.embedding_free.rows} x {side.embedding_free.cols}"
        )
    moduli = tuple(m for m, _ in side.embedding_torsion)
    if moduli != side.h1_torsion:
        v.append(
            f"embedding_torsion moduli must match h1_torsion exactly "
            f"(got {list(moduli)} vs {list(side.h1_torsion)})"
        )
    for idx, (_, row) in enumerate(side.embedding_torsion):
        if len(row) != two_g:
            v.append(f"embedding_torsion[{idx}].row must have length {two_g}, got {len(row)}")
    if side.p_parity not in PARITIES:
        v.append(f"p_parity must be one of {PARITIES}, got {side.p_parity!r}")
    elif side.p_parity == "even" and side.signature % 8:
        v.append(f"an even p_parity needs sigma = 0 (mod 8), got sigma = {side.signature}")
    if side.kbar_divisibility is not None and side.kbar_divisibility < 0:
        v.append("kbar_divisibility must be nonnegative or unknown")
    return v


def validate_problem(problem: FibreSumProblem) -> list[str]:
    """Side violations plus the cross-side invariants the document states.

    The length of t is not checked here: it must equal d, the rank of the
    kernel of the stacked embedding, which :func:`engine.analyse` computes
    and checks.
    """
    v = [f"M: {msg}" for msg in validate_side(problem.M)]
    v += [f"N: {msg}" for msg in validate_side(problem.N)]
    if problem.M.genus != problem.N.genus:
        v.append(f"genus mismatch: M has g={problem.M.genus}, N has g={problem.N.genus}")
        return v
    two_g = 2 * problem.genus
    if len(problem.gluing.a) != two_g:
        v.append(f"gluing.a must have length 2g = {two_g}, got {len(problem.gluing.a)}")
    return v


def elliptic_surface(n: int) -> ManifoldSide:
    """Catalog side E(n): the simply connected elliptic surface without
    multiple fibres, with the general fibre as the gluing surface.

    The section sphere plays the role of the dual class B: it has square
    -n and pairs with the canonical class as n-2.  The perpendicular part
    of the canonical class vanishes, hence kbar_divisibility = 0.
    """
    as_ints((n,), "elliptic_surface n")
    if n < 1:
        raise ValueError(f"elliptic_surface requires n >= 1, got {n}")
    return ManifoldSide(
        name=f"E({n})",
        b1=0,
        h1_torsion=(),
        b2_plus=2 * n - 1,
        b2_minus=10 * n - 1,
        K_squared=0,
        K_dot_B=n - 2,
        B_squared=-n,
        genus=1,
        k=1,
        embedding_free=IntMatrix.zeros(0, 2),
        embedding_torsion=(),
        p_parity="even",
        kbar_divisibility=0,
    )


CATALOG = {"E": elliptic_surface}  # each family's name and the constructor of its n-th side
CATALOG_NAMES = ", ".join(repr(name) for name in CATALOG)


# -- document schema ---------------------------------------------------------

_SIDE_REQUIRED = ("b1", "b2_plus", "b2_minus", "K_squared", "K_dot_B", "B_squared", "genus", "k")
_SIDE_OPTIONAL = tuple(f.name for f in fields(ManifoldSide) if f.name not in _SIDE_REQUIRED)


def _as_int_list(value: Any, where: str) -> tuple[int, ...]:
    """A document's integer list under the integer rule of ``as_ints``."""
    if not isinstance(value, list):
        raise DocumentError([f"{where}: expected a list of integers, got {value!r}"])
    try:
        return as_ints(value, where)
    except ValueError as exc:
        raise DocumentError([str(exc)]) from exc


def _as_int(value: Any, where: str) -> int:
    return _as_int_list([value], where)[0]


def parse_side(doc: Any, where: str) -> ManifoldSide:
    """One side from its document; either full data or a catalog reference."""
    if not isinstance(doc, dict):
        raise DocumentError([f"{where}: expected an object, got {doc!r}"])
    if "catalog" in doc:
        extra = set(doc) - {"catalog", "n"}
        if extra:
            raise DocumentError([f"{where}: unknown field(s) with catalog reference: {sorted(extra)}"])
        family = doc["catalog"]
        if not isinstance(family, str) or family not in CATALOG:
            raise DocumentError([f"{where}.catalog: unknown catalog {family!r} (supported: {CATALOG_NAMES})"])
        n = _as_int(doc.get("n"), f"{where}.n")
        try:
            return CATALOG[family](n)
        except ValueError as exc:
            raise DocumentError([f"{where}.n: {exc}"]) from exc

    unknown = set(doc) - set(_SIDE_REQUIRED) - set(_SIDE_OPTIONAL)
    if unknown:
        raise DocumentError([f"{where}: unknown field(s) {sorted(unknown)}"])
    missing = [key for key in _SIDE_REQUIRED if key not in doc]
    if missing:
        raise DocumentError([f"{where}: missing required field(s) {missing}"])

    required = {key: _as_int(doc[key], f"{where}.{key}") for key in _SIDE_REQUIRED}
    b1, genus = required["b1"], required["genus"]
    two_g = 2 * genus

    h1_torsion = _as_int_list(doc.get("h1_torsion", []), f"{where}.h1_torsion")
    free_rows = doc.get("embedding_free")
    torsion_doc = doc.get("embedding_torsion")
    implied_rows = (b1 if free_rows is None else 0) + (len(h1_torsion) if torsion_doc is None else 0)
    # An omitted row costs at least one cell, even at genus 0.
    if (cells := implied_rows * max(two_g, 1)) > MAX_IMPLIED_CELLS:
        raise DocumentError(
            [
                f"{where}: {implied_rows} omitted embedding rows count as {cells} cells, "
                f"more than {MAX_IMPLIED_CELLS} (b1 = {b1}, genus = {genus}, "
                f"{len(h1_torsion)} torsion factor(s))"
            ]
        )

    if free_rows is not None and not isinstance(free_rows, list):
        raise DocumentError([f"{where}.embedding_free: expected an array of rows"])
    try:
        if free_rows is None:
            embedding_free = IntMatrix.zeros(b1, two_g)
        elif all(isinstance(r, list) for r in free_rows):
            embedding_free = IntMatrix.from_rows(free_rows, cols=two_g)
        else:
            raise ValueError
    except ValueError as exc:
        # The constructor's scan is the one integer check; row by row names its culprit, if any.
        for r in free_rows or ():
            _as_int_list(r, f"{where}.embedding_free")
        raise DocumentError([f"{where}.embedding_free: {exc} (b1 = {b1}, genus = {genus})"]) from exc

    if torsion_doc is None:
        embedding_torsion = [(m, (0,) * two_g) for m in h1_torsion]
    else:
        if not isinstance(torsion_doc, list):
            raise DocumentError([f"{where}.embedding_torsion: expected an array of objects"])
        embedding_torsion = []
        for idx, item in enumerate(torsion_doc):
            spot = f"{where}.embedding_torsion[{idx}]"
            if not isinstance(item, dict) or set(item) != {"modulus", "row"}:
                raise DocumentError([f"{spot}: expected an object with fields 'modulus' and 'row'"])
            embedding_torsion.append(
                (_as_int(item["modulus"], f"{spot}.modulus"), _as_int_list(item["row"], f"{spot}.row"))
            )

    kbar = doc.get("kbar_divisibility")
    if kbar == "unknown":
        kbar = None
    if kbar is not None:
        kbar = _as_int(kbar, f"{where}.kbar_divisibility")

    name = doc.get("name", where)
    if not isinstance(name, str):
        raise DocumentError([f"{where}.name: expected a string"])

    return ManifoldSide(
        name=name,
        h1_torsion=h1_torsion,
        embedding_free=embedding_free,
        embedding_torsion=embedding_torsion,
        p_parity=doc.get("p_parity", "unknown"),
        kbar_divisibility=kbar,
        **required,
    )


def parse_problem(document: Any) -> FibreSumProblem:
    """A problem from a parsed JSON document, checked against the schema,
    the value types and the size caps.

    Every rule of :func:`validate_problem`, and the length of t, is checked
    by :func:`engine.analyse`, which hand-built problems pass too.
    """
    if not isinstance(document, dict):
        raise DocumentError(["top level: expected an object"])
    unknown = set(document) - {"M", "N", "gluing", "t"}
    if unknown:
        raise DocumentError([f"top level: unknown field(s) {sorted(unknown)}"])
    for key in ("M", "N", "gluing"):
        if key not in document:
            raise DocumentError([f"top level: missing required field '{key}'"])

    side_m = parse_side(document["M"], "M")
    side_n = parse_side(document["N"], "N")

    gluing_doc = document["gluing"]
    if not isinstance(gluing_doc, dict) or set(gluing_doc) != {"a"}:
        raise DocumentError(["gluing: expected an object with the single field 'a'"])
    gluing = GluingClass(_as_int_list(gluing_doc["a"], "gluing.a"))

    if (t_doc := document.get("t")) is None:
        return FibreSumProblem(side_m, side_n, gluing)
    return FibreSumProblem(side_m, side_n, gluing, _as_int_list(t_doc, "t"))


def side_to_dict(side: ManifoldSide) -> dict[str, Any]:
    """The side's fields under their own names, as JSON values."""
    return dict(
        vars(side),
        h1_torsion=list(side.h1_torsion),
        embedding_free=side.embedding_free.to_rows(),
        embedding_torsion=[{"modulus": m, "row": list(row)} for m, row in side.embedding_torsion],
    )


def problem_to_dict(problem: FibreSumProblem) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "M": side_to_dict(problem.M),
        "N": side_to_dict(problem.N),
        "gluing": {"a": list(problem.gluing.a)},
    }
    if problem.t is not None:
        doc["t"] = list(problem.t)
    return doc
