"""Side validation, the elliptic catalog, and document parsing."""

import dataclasses

import pytest

from fibresum import (
    DocumentError,
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    analyse,
    elliptic_surface,
    parse_problem,
    problem_to_dict,
    validate_problem,
    validate_side,
)
from fibresum import model
from helpers import make_side


class TestValidateSide:
    def test_catalog_side_valid(self):
        assert validate_side(elliptic_surface(2)) == []

    def test_wrong_k_squared(self):
        side = dataclasses.replace(elliptic_surface(2), K_squared=1)
        violations = validate_side(side)
        assert any("K_squared" in v and "needs 0" in v for v in violations)

    def test_b2_too_small(self):
        side = make_side("S", genus=1, b2_plus=1, b2_minus=0)
        assert any("b2 >= 2" in v for v in validate_side(side))

    def test_definite_side_rejected(self):
        side = make_side("S", genus=0, b2_plus=3, b2_minus=0)
        assert any("b2_minus >= 1" in v for v in validate_side(side))

    def test_characteristic_parity(self):
        side = make_side("S", genus=1, K_dot_B=1, B_squared=0)
        assert any("mod 2" in v for v in validate_side(side))

    def test_torsion_chain_checked(self):
        side = make_side("S", genus=1, h1_torsion=(2, 3))
        assert any("divisibility chain" in v for v in validate_side(side))

    def test_embedding_shape_checked(self):
        side = dataclasses.replace(
            make_side("S", genus=1, b1=2), embedding_free=IntMatrix.zeros(2, 3)
        )
        assert any("embedding_free" in v for v in validate_side(side))

    def test_torsion_moduli_must_match(self):
        side = dataclasses.replace(
            make_side("S", genus=1, h1_torsion=(2,)), embedding_torsion=((3, (0, 0)),)
        )
        assert any("moduli" in v for v in validate_side(side))


class TestEllipticCatalog:
    def test_k3(self):
        e2 = elliptic_surface(2)
        assert e2.b2 == 22
        assert e2.signature == -16
        assert e2.euler == 24
        assert e2.K_dot_B == 0
        assert e2.B_squared == -2

    def test_rational_surface(self):
        e1 = elliptic_surface(1)
        assert e1.b2_plus == 1
        assert e1.b2_minus == 9
        assert e1.K_dot_B == -1

    def test_e3(self):
        e3 = elliptic_surface(3)
        assert e3.K_dot_B == 1
        assert e3.B_squared == -3

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            elliptic_surface(0)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_always_valid(self, n):
        assert validate_side(elliptic_surface(n)) == []


CATALOG_DOC = {
    "M": {"catalog": "E", "n": 2},
    "N": {"catalog": "E", "n": 2},
    "gluing": {"a": [1, 0]},
}


class TestParseProblem:
    def test_catalog_dispatch(self):
        problem = parse_problem(CATALOG_DOC)
        assert problem.M == elliptic_surface(2)
        assert problem.gluing.a == (1, 0)
        assert problem.t is None

    def test_genus_mismatch(self):
        doc = {
            "M": {"catalog": "E", "n": 2},
            "N": {
                "name": "S", "b1": 0, "b2_plus": 2, "b2_minus": 2,
                "K_squared": 2 * 6, "K_dot_B": 0, "B_squared": 0, "genus": 2, "k": 1,
            },
            "gluing": {"a": [0, 0, 0, 0]},
        }
        with pytest.raises(DocumentError, match="genus mismatch"):
            parse_problem(doc)

    def test_gluing_length(self):
        doc = dict(CATALOG_DOC, gluing={"a": [1, 0, 0]})
        with pytest.raises(DocumentError, match="gluing.a"):
            parse_problem(doc)

    def test_t_length(self):
        doc = dict(CATALOG_DOC, t=[1, 2, 3])
        with pytest.raises(DocumentError, match="t must have length d = 2"):
            analyse(parse_problem(doc))

    def test_unknown_field_named(self):
        doc = dict(CATALOG_DOC)
        doc["M"] = {"catalog": "E", "n": 2, "bogus": 1}
        with pytest.raises(DocumentError, match="bogus"):
            parse_problem(doc)

    def test_missing_field_named(self):
        doc = dict(CATALOG_DOC)
        doc["N"] = {"b1": 0, "genus": 1, "k": 1}
        with pytest.raises(DocumentError, match="missing required"):
            parse_problem(doc)

    def test_type_error_named(self):
        doc = dict(CATALOG_DOC)
        doc["M"] = {"catalog": "E", "n": "two"}
        with pytest.raises(DocumentError, match="M.n"):
            parse_problem(doc)

    def test_json_text_accepted(self):
        import json

        problem = parse_problem(json.dumps(CATALOG_DOC))
        assert problem.N == elliptic_surface(2)

    @pytest.mark.parametrize(
        "text", ['{"M": ' + "1" * 5000 + "}", "[" * 100_000], ids=["huge_int", "deep"]
    )
    def test_hostile_json_text_rejected(self, text):
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse_problem(text)

    def test_implied_cells_capped(self, monkeypatch):
        side = {"name": "S", "b1": 4, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1}
        monkeypatch.setattr(model, "MAX_IMPLIED_CELLS", 8)
        assert model.parse_side(side, "M").embedding_free == IntMatrix.zeros(4, 2)
        with pytest.raises(DocumentError, match="more than 8"):
            model.parse_side(dict(side, b1=5), "M")
        with pytest.raises(DocumentError, match="more than 8"):
            model.parse_side(dict(side, h1_torsion=[2]), "M")
        # Rows the document gives are not implied.
        explicit = dict(side, b1=5, embedding_free=[[0, 0]] * 5)
        assert model.parse_side(explicit, "M").embedding_free == IntMatrix.zeros(5, 2)

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1, True], "M.embedding_free: expected an integer, got True"),
            ([1, 2.0], "M.embedding_free: expected an integer, got 2.0"),
            (["1", 2], "M.embedding_free: expected an integer, got '1'"),
            ((1, 2), "M.embedding_free: expected a list of integers, got (1, 2)"),
        ],
        ids=["bool", "float", "str", "tuple"],
    )
    def test_embedding_entry_errors(self, row, message):
        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, 1], row]}
        with pytest.raises(DocumentError) as caught:
            model.parse_side(side, "M")
        assert caught.value.messages == [message]

    def test_embedding_int_subclass_accepted(self):
        import enum

        class Level(enum.IntEnum):
            ONE = 1

        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, Level.ONE], [1, 0]]}
        assert model.parse_side(side, "M").embedding_free == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_invariant_violation_rejected(self):
        doc = dict(CATALOG_DOC)
        doc["M"] = {
            "name": "bad", "b1": 0, "b2_plus": 3, "b2_minus": 19,
            "K_squared": 5, "K_dot_B": 0, "B_squared": -2, "genus": 1, "k": 1,
        }
        with pytest.raises(DocumentError, match="K_squared"):
            parse_problem(doc)


class TestRoundTrip:
    def test_catalog_round_trip(self):
        problem = parse_problem(CATALOG_DOC)
        again = parse_problem(problem_to_dict(problem))
        assert again == problem

    def test_full_round_trip_with_torsion(self):
        side = make_side(
            "twisted",
            genus=2,
            b1=2,
            embedding=IntMatrix.from_rows([[1, 0, 2, -1], [0, 1, 0, 3]]),
            h1_torsion=(2, 4),
            embedding_torsion=((2, (1, 0, 1, 0)), (4, (0, 3, 2, 1))),
            k=2,
            K_dot_B=3,
            B_squared=1,
            p_parity="odd",
            kbar_divisibility=None,
        )
        problem = FibreSumProblem(
            M=side, N=dataclasses.replace(side, name="other"),
            gluing=GluingClass((1, -2, 0, 4)), t=None,
        )
        assert validate_problem(problem) == []
        again = parse_problem(problem_to_dict(problem))
        assert again == problem


class TestWithT:
    def test_override(self):
        problem = parse_problem(CATALOG_DOC)
        updated = dataclasses.replace(problem, t=(3, 0))
        assert analyse(updated).t_effective == (3, 0)

    def test_override_length_checked(self):
        problem = parse_problem(CATALOG_DOC)
        with pytest.raises(DocumentError, match="length d"):
            analyse(dataclasses.replace(problem, t=(1, 2, 3)))
