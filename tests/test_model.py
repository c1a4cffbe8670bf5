"""Side validation, the elliptic catalog, and document parsing."""

import dataclasses
import enum
import json
import re

import pytest

from fibresum import (
    AbGroup,
    DocumentError,
    FibreSumProblem,
    GluingClass,
    IntMatrix,
    analyse,
    elliptic_surface,
    normal_form,
    parse_problem,
    phi_action_h1,
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

    def test_k_zero_flagged(self):
        # k = 0 is the boundary of the rule, and k = 1 the first value past it.
        assert validate_side(make_side("S", genus=1, k=0)) == ["k must be a positive integer"]
        assert validate_side(make_side("S", genus=1, k=1)) == []

    def test_negative_b1_and_genus_flagged(self):
        # -1 is the first value past each rule's boundary.
        side = make_side("S", genus=1)
        assert "b1 must be nonnegative" in validate_side(dataclasses.replace(side, b1=-1))
        assert "genus must be nonnegative" in validate_side(dataclasses.replace(side, genus=-1))

    def test_b2_plus_zero_flagged(self):
        # b2 = b2_minus >= 2 passes the b2 rule, so only the nucleus rule
        # sees b2_plus = 0.
        for b2_minus in (2, 3):
            assert validate_side(make_side("S", genus=1, b2_plus=0, b2_minus=b2_minus)) == [
                "b2_plus >= 1 and b2_minus >= 1 required "
                "(the nucleus block [[B^2,1],[1,0]] has signature zero)"
            ]

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

    def test_genus_cap(self):
        assert validate_side(make_side("S", genus=512)) == []
        assert validate_side(make_side("S", genus=513)) == [
            f"genus = 513 implies 1026 x 1026 cells, more than {model.MAX_IMPLIED_CELLS}"
        ]

    def test_even_parity_needs_signature_divisible_by_8(self):
        # An even unimodular form has signature = 0 (mod 8).
        assert validate_side(make_side("P", genus=1, b2_plus=2, b2_minus=10, p_parity="even")) == []
        for sigma_minus in (4, 6, 7):
            side = make_side("P", genus=1, b2_plus=2, b2_minus=sigma_minus, p_parity="even")
            assert validate_side(side) == [
                f"an even p_parity needs sigma = 0 (mod 8), got sigma = {2 - sigma_minus}"
            ]
            assert validate_side(dataclasses.replace(side, p_parity="odd")) == []
            assert validate_side(dataclasses.replace(side, p_parity="unknown")) == []

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
        problem = parse_problem(doc)
        with pytest.raises(DocumentError, match="genus mismatch") as caught:
            analyse(problem)
        assert caught.value.messages == validate_problem(problem)

    def test_gluing_length(self):
        doc = dict(CATALOG_DOC, gluing={"a": [1, 0, 0]})
        problem = parse_problem(doc)
        with pytest.raises(DocumentError) as caught:
            analyse(problem)
        assert caught.value.messages == ["gluing.a must have length 2g = 2, got 3"]

    @pytest.mark.parametrize(
        "gluing", [{"a": [1, 0], "b": 0}, {}, ["a"], 7], ids=["extra_field", "empty", "list", "int"]
    )
    def test_gluing_needs_exactly_its_field(self, gluing):
        with pytest.raises(DocumentError) as caught:
            parse_problem(dict(CATALOG_DOC, gluing=gluing))
        assert caught.value.messages == ["gluing: expected an object with the single field 'a'"]

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

    def test_unknown_catalog_named(self):
        for family in ("F", ["E"]):
            doc = dict(CATALOG_DOC, M={"catalog": family, "n": 1})
            with pytest.raises(DocumentError) as caught:
                parse_problem(doc)
            assert str(caught.value) == f"M.catalog: unknown catalog {family!r} (supported: 'E')"

    def test_type_error_named(self):
        doc = dict(CATALOG_DOC)
        doc["M"] = {"catalog": "E", "n": "two"}
        with pytest.raises(DocumentError, match="M.n"):
            parse_problem(doc)

    @pytest.mark.parametrize(
        "document",
        [json.dumps(CATALOG_DOC), json.dumps(CATALOG_DOC).encode(), [CATALOG_DOC], None],
        ids=["text", "bytes", "list", "null"],
    )
    def test_only_a_parsed_object(self, document):
        # JSON text is decoded by the CLI, not here.
        with pytest.raises(DocumentError) as caught:
            parse_problem(document)
        assert caught.value.messages == ["top level: expected an object"]

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

    def test_implied_cells_cap_at_its_size(self):
        # At g = 512 a row has 1024 cells, so the cap admits exactly 1024
        # omitted rows, counted from whichever kind the document omits.
        two_g = 1024
        rows = model.MAX_IMPLIED_CELLS // two_g
        assert rows * two_g == model.MAX_IMPLIED_CELLS
        side = {"name": "S", "b1": rows, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
                "K_dot_B": 0, "B_squared": 0, "genus": two_g // 2, "k": 1}
        torsion_row = {"modulus": 2, "row": [0] * two_g}
        # Omitted free rows at the cap; the torsion row the document gives
        # is not implied.
        parsed = model.parse_side(dict(side, h1_torsion=[2], embedding_torsion=[torsion_row]), "M")
        assert (parsed.embedding_free.rows, len(parsed.embedding_torsion)) == (rows, 1)
        # Omitted torsion rows at the cap; the free row given is not implied.
        parsed = model.parse_side(
            dict(side, b1=1, embedding_free=[[0] * two_g], h1_torsion=[2] * rows), "M"
        )
        assert (parsed.embedding_free.rows, len(parsed.embedding_torsion)) == (1, rows)
        # One omitted row more, of either kind, is refused before anything
        # is allocated, also when the other kind is given.
        over = [
            {"b1": rows + 1},
            {"h1_torsion": [2]},
            {"b1": rows + 1, "h1_torsion": [2], "embedding_torsion": [torsion_row]},
            {"b1": 1, "embedding_free": [[0] * two_g], "h1_torsion": [2] * (rows + 1)},
        ]
        for extra in over:
            with pytest.raises(DocumentError) as caught:
                model.parse_side(dict(side, **extra), "M")
            b1, count = extra.get("b1", rows), len(extra.get("h1_torsion", []))
            assert caught.value.messages == [
                f"M: {rows + 1} omitted embedding rows count as {(rows + 1) * two_g} cells, more "
                f"than {model.MAX_IMPLIED_CELLS} (b1 = {b1}, genus = 512, {count} torsion factor(s))"
            ]

    def test_implied_cells_cap_at_genus_0(self):
        # A genus-0 row holds no cells, yet each omitted row still counts
        # as one, so b1 cannot grow without bound.
        cap = model.MAX_IMPLIED_CELLS
        side = {"name": "S", "b1": cap, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
                "K_dot_B": 0, "B_squared": 0, "genus": 0, "k": 1}
        assert model.parse_side(side, "M").embedding_free == IntMatrix(cap, 0, ())
        with pytest.raises(DocumentError) as caught:
            model.parse_side(dict(side, b1=cap + 1), "M")
        assert caught.value.messages == [
            f"M: {cap + 1} omitted embedding rows count as {cap + 1} cells, more than "
            f"{cap} (b1 = {cap + 1}, genus = 0, 0 torsion factor(s))"
        ]

    def test_omitted_torsion_rows_are_zero(self):
        # With rows of zeros the Z/2 of M survives in the sum; the gluing
        # kills the meridian.  A row with a unit would kill the Z/2 too.
        side = {"name": "T", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 12,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, "h1_torsion": [2]}
        problem = parse_problem({"M": side, "N": {"catalog": "E", "n": 2}, "gluing": {"a": [1, 0]}})
        assert validate_problem(problem) == []
        assert problem.M.embedding_torsion == ((2, (0, 0)),)
        assert analyse(problem).h1 == AbGroup(0, (2,))
        moved = dataclasses.replace(problem.M, embedding_torsion=((2, (1, 0)),))
        assert analyse(dataclasses.replace(problem, M=moved)).h1 == AbGroup(0)

    @pytest.mark.parametrize("item", [{"modulus": 2, "row": [0, 0], "order": 2}, {"modulus": 2}, [2, [0, 0]]])
    def test_embedding_torsion_item_needs_exactly_its_fields(self, item):
        side = {"name": "T", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 12,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, "h1_torsion": [2],
                "embedding_torsion": [item]}
        with pytest.raises(DocumentError) as caught:
            model.parse_side(side, "M")
        assert caught.value.messages == [
            "M.embedding_torsion[0]: expected an object with fields 'modulus' and 'row'"
        ]

    @pytest.mark.parametrize(
        "row, message",
        [
            ([1, True], "M.embedding_free: expected an integer, got True"),
            ([1, 2.0], "M.embedding_free: expected an integer, got 2.0"),
            (["1", 2], "M.embedding_free: expected an integer, got '1'"),
            ((1, 2), "M.embedding_free: expected a list of integers, got (1, 2)"),
            (5, "M.embedding_free: expected a list of integers, got 5"),
            (None, "M.embedding_free: expected a list of integers, got None"),
            ("10", "M.embedding_free: expected a list of integers, got '10'"),
            ({"0": 1}, "M.embedding_free: expected a list of integers, got {'0': 1}"),
            ([1], "M.embedding_free: ragged rows (b1 = 2, genus = 1)"),
            ([1, 0, 0], "M.embedding_free: ragged rows (b1 = 2, genus = 1)"),
            ([1, 0, 0.5], "M.embedding_free: expected an integer, got 0.5"),
        ],
        ids=["bool", "float", "str", "tuple", "int_row", "null_row", "str_row", "object_row",
             "short_row", "long_row", "long_row_float"],
    )
    def test_embedding_entry_errors(self, row, message):
        # The rows are checked one by one only when the one scan in the
        # IntMatrix constructor fails, or a row is not a list.
        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, 1], row]}
        with pytest.raises(DocumentError) as caught:
            model.parse_side(side, "M")
        assert caught.value.messages == [message]

    def test_first_error_named(self):
        # The errors come in the order of the per-value checks: a bad
        # integer in row 0 before a row that is not a list, a bad integer
        # before a row of the wrong width, and the first bad required
        # number in schema order.
        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, 1.5], (1, 0)]}
        for rows in ([[0, 1.5], (1, 0)], [[0, 1, 0], [1, 1.5]]):
            with pytest.raises(DocumentError) as caught:
                model.parse_side(dict(side, embedding_free=rows), "M")
            assert caught.value.messages == ["M.embedding_free: expected an integer, got 1.5"]
        with pytest.raises(DocumentError) as caught:
            model.parse_side(dict(side, genus="1", b2_plus=True), "M")
        assert caught.value.messages == ["M.b2_plus: expected an integer, got True"]

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"embedding_free": [[0, 1]]}, "M: embedding_free must be 2 x 2, got 1 x 2"),
            ({"p_parity": "mixed"},
             "M: p_parity must be one of ('even', 'odd', 'unknown'), got 'mixed'"),
        ],
        ids=["row_count", "parity"],
    )
    def test_side_rules_reported_by_validate_side(self, fields, message):
        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, 1], [1, 0]], **fields}
        doc = {"M": side, "N": {"catalog": "E", "n": 2}, "gluing": {"a": [0, 0]}}
        problem = parse_problem(doc)
        with pytest.raises(DocumentError) as caught:
            analyse(problem)
        assert caught.value.messages == [message]

    def test_embedding_width_rejected_by_from_rows(self):
        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, 1, 0], [1, 0, 0]]}
        with pytest.raises(DocumentError) as caught:
            model.parse_side(side, "M")
        assert caught.value.messages == [
            "M.embedding_free: cols does not match row length (b1 = 2, genus = 1)"
        ]

    def test_embedding_int_subclass_accepted(self):
        import enum

        class Level(enum.IntEnum):
            ONE = 1

        side = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1,
                "embedding_free": [[0, Level.ONE], [1, 0]]}
        assert model.parse_side(side, "M").embedding_free == IntMatrix.from_rows([[0, 1], [1, 0]])

    SQUARE = {"name": "S", "b1": 2, "b2_plus": 1, "b2_minus": 1, "K_squared": 0,
              "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1}

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(1, 0), [0, 1]], "M.embedding_free: expected a list of integers, got (1, 0)"),
            ([[0, [1]], [1, 0]], "M.embedding_free: expected an integer, got [1]"),
            ({"0": [0, 1]}, "M.embedding_free: expected an array of rows"),
        ],
        ids=["tuple_first_row", "nested", "object"],
    )
    def test_embedding_rows_errors(self, rows, message):
        with pytest.raises(DocumentError) as caught:
            model.parse_side(dict(self.SQUARE, embedding_free=rows), "M")
        assert caught.value.messages == [message]

    def test_list_subclass_rows_accepted(self):
        class Row(list):
            pass

        side = model.parse_side(dict(self.SQUARE, embedding_free=[Row([0, 1]), [1, 0]]), "M")
        assert side.embedding_free == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_omitted_or_null_rows(self):
        for side in (self.SQUARE, dict(self.SQUARE, embedding_free=None)):
            assert model.parse_side(side, "M").embedding_free == IntMatrix.zeros(2, 2)
            with pytest.raises(DocumentError) as caught:
                model.parse_side(dict(side, b1=-1), "M")
            assert caught.value.messages == [
                "M.embedding_free: matrix dimensions must be nonnegative (b1 = -1, genus = 1)"
            ]

    @pytest.mark.parametrize("fields", [{"b1": -(10**30)}, {"genus": -(10**30)}], ids=["b1", "genus"])
    def test_huge_negative_dimension_refused(self, fields):
        # The omitted rows would be a tuple too long to index, not an empty one.
        with pytest.raises(DocumentError, match="matrix dimensions must be nonnegative"):
            model.parse_side(dict(self.SQUARE, **fields), "M")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"gluing": {"a": [1, 1.5]}}, "gluing.a: expected an integer, got 1.5"),
            ({"gluing": {"a": (1, 0)}}, "gluing.a: expected a list of integers, got (1, 0)"),
            ({"gluing": {"a": [1, True]}, "t": [0.5]}, "gluing.a: expected an integer, got True"),
            ({"t": [True]}, "t: expected an integer, got True"),
            ({"t": (0,)}, "t: expected a list of integers, got (0,)"),
            ({"t": "0"}, "t: expected a list of integers, got '0'"),
        ],
        ids=["a_float", "a_tuple", "a_before_t", "t_bool", "t_tuple", "t_str"],
    )
    def test_constructor_check_keeps_document_messages(self, fields, message):
        # parse_problem checks gluing.a, then t, as document lists, so a
        # failure names the document's field before any constructor runs.
        with pytest.raises(DocumentError) as caught:
            parse_problem(dict(CATALOG_DOC, **fields))
        assert caught.value.messages == [message]

    def test_invariant_violation_rejected(self):
        doc = dict(CATALOG_DOC)
        doc["M"] = {
            "name": "bad", "b1": 0, "b2_plus": 3, "b2_minus": 19,
            "K_squared": 5, "K_dot_B": 0, "B_squared": -2, "genus": 1, "k": 1,
        }
        problem = parse_problem(doc)
        with pytest.raises(DocumentError, match="K_squared") as caught:
            analyse(problem)
        assert caught.value.messages == validate_problem(problem)


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


E2 = elliptic_surface(2)
HAND_BUILT = {
    "side scalar": lambda x: dataclasses.replace(E2, K_dot_B=x),
    "kbar_divisibility": lambda x: dataclasses.replace(E2, kbar_divisibility=x),
    "h1_torsion": lambda x: dataclasses.replace(E2, h1_torsion=(x,)),
    "embedding_torsion modulus": lambda x: dataclasses.replace(E2, embedding_torsion=((x, (0, 0)),)),
    "embedding_torsion row": lambda x: dataclasses.replace(E2, embedding_torsion=((2, (x, 0)),)),
    "GluingClass.a": lambda x: GluingClass((x, 0)),
    "FibreSumProblem.t": lambda x: FibreSumProblem(M=E2, N=E2, gluing=GluingClass((1, 0)), t=(x, 0)),
    "phi_action_h1": lambda x: phi_action_h1(1, (x, 0)),
    "phi_action_h1 genus": lambda x: phi_action_h1(x, (0,) * 4),
    "IntMatrix rows": lambda x: IntMatrix(x, 1, (0, 0)),
    "IntMatrix cols": lambda x: IntMatrix(1, x, (0, 0)),
    "IntMatrix.zeros": lambda x: IntMatrix.zeros(x, 2),
    "AbGroup free rank": lambda x: AbGroup(x),
    "AbGroup torsion": lambda x: AbGroup(0, (x,)),
    "normal_form factors": lambda x: normal_form(0, [x]),
    "elliptic_surface": elliptic_surface,
}


class TestHandBuiltIntegers:
    """Values built in code follow the rule documents do: a bool, float
    or str where an integer belongs raises ValueError, and is never
    rounded or read as a number."""

    @pytest.mark.parametrize("bad", [1.9, True, "1"], ids=["float", "bool", "str"])
    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_non_integer_rejected(self, build, bad):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {bad!r}")):
            build(bad)

    @pytest.mark.parametrize("bad", [2.0, False], ids=["float", "bool"])
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda x: IntMatrix(1, 2, (1, x)), "matrix entries"),
            (lambda x: IntMatrix.from_rows([[1, 0], [0, x]]), "matrix entries"),
            (lambda x: dataclasses.replace(E2, K_dot_B=x), "side numbers"),
            (lambda x: dataclasses.replace(E2, embedding_torsion=((2, (x, 0)),)), "embedding_torsion rows"),
            (lambda x: GluingClass((1, x)), "gluing vector entries"),
        ],
        ids=["IntMatrix", "from_rows", "ManifoldSide", "ManifoldSide torsion row", "GluingClass"],
    )
    def test_own_text(self, build, what, bad):
        with pytest.raises(ValueError) as caught:
            build(bad)
        assert str(caught.value) == f"{what}: expected an integer, got {bad!r}"

    @pytest.mark.parametrize("build", HAND_BUILT.values(), ids=HAND_BUILT.keys())
    def test_int_subclass_accepted(self, build):
        build(enum.IntEnum("Two", "ONE TWO").TWO)
