"""End-to-end tests of the command line front end."""

import dataclasses
import enum
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

from fibresum import cli, engine, intlat, model
from fibresum.intlat import IntMatrix
from helpers import make_side, matmul, random_matrix, random_unimodular, run_python

K3_SUM = {
    "M": {"catalog": "E", "n": 2},
    "N": {"catalog": "E", "n": 2},
    "gluing": {"a": [0, 0]},
}

E2_UNKNOWN_PARITY = dict(model.side_to_dict(model.elliptic_surface(2)), p_parity="unknown")

# Side M declares an even form of signature -2, so the total of -18 is
# not divisible by 8 either.
EVEN_SIGNATURE_18 = {
    "M": {
        "name": "P", "b1": 0, "b2_plus": 2, "b2_minus": 4, "K_squared": 10,
        "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, "p_parity": "even",
    },
    "N": {"catalog": "E", "n": 2},
    "gluing": {"a": [0, 0]},
}


# An in-scope side with one curve of its own and d = 1 against E(2).
ONE_CURVE_SUM = {
    "M": {
        "b1": 1, "b2_plus": 2, "b2_minus": 2, "K_squared": 8, "K_dot_B": 0,
        "B_squared": 0, "genus": 1, "k": 1, "embedding_free": [[1, 0]],
    },
    "N": {"catalog": "E", "n": 2},
    "gluing": {"a": [3, 5]},
}

# A side with Z/2 in H_1 whose torsion row is nonzero; forms are gated.
TORSION_SUM = {
    "M": {
        "name": "T", "b1": 1, "h1_torsion": [2], "b2_plus": 2, "b2_minus": 2,
        "K_squared": 8, "K_dot_B": 1, "B_squared": -1, "genus": 1, "k": 1,
        "embedding_free": [[0, 1]],
        "embedding_torsion": [{"modulus": 2, "row": [1, 0]}],
        "p_parity": "odd", "kbar_divisibility": "unknown",
    },
    "N": {"catalog": "E", "n": 3},
    "gluing": {"a": [1, 2]},
}

# Outputs the golden corpus does not reach, pinned byte for byte under
# tests/data/cli/: name -> (argv with "{doc}" for the document, document,
# exit code).
PINNED_CLI = {
    "catalog_E1": (["catalog", "E", "1"], None, 0),
    "catalog_E4": (["catalog", "E", "4"], None, 0),
    "compute_unknown_parity_text": (["compute", "{doc}"], dict(K3_SUM, M=E2_UNKNOWN_PARITY), 0),
    "compute_unknown_parity_json": (
        ["compute", "{doc}", "--format", "json"], dict(K3_SUM, M=E2_UNKNOWN_PARITY), 0
    ),
    "compute_no_forms_json": (["compute", "{doc}", "--no-forms", "--format", "json"], ONE_CURVE_SUM, 0),
    "batch_one_invalid_json": (
        ["batch", "{doc}", "--format", "json"],
        [ONE_CURVE_SUM, {"M": {"catalog": "E", "n": 2}}, TORSION_SUM],
        2,
    ),
}
PINNED_DIR = Path(__file__).resolve().parent / "data" / "cli"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cap_document(genus, b1_m, b1_n):
    """A valid problem whose two sides omit their embedding rows."""
    sides = [{"name": name, "b1": b1, "b2_plus": 2, "b2_minus": 2, "K_squared": 12 - 4 * b1, "K_dot_B": 0,
              "B_squared": 0, "genus": genus, "k": 1} for name, b1 in (("M", b1_m), ("N", b1_n))]
    return {"M": sides[0], "N": sides[1], "gluing": {"a": [0] * (2 * genus)}}


def cap_refusal(b1, two_g):
    return (f"invalid input: (b1(M) + b1(N)) * (2g)^2 = {b1} * {two_g}^2 = {b1 * two_g**2} "
            f"multiply-adds to check the kernel, more than {model.MAX_KERNEL_CHECK}\n")


class TestCompute:
    def test_twisted_text_report(self, tmp_path):
        doc = dict(K3_SUM, gluing={"a": [1, 0]})
        code, out, _ = run(["compute", write_doc(tmp_path, doc)])
        assert code == 0
        assert "K_X indivisible" in out
        assert "odd 7<+1> + 39<-1>" in out

    def test_untwisted_text_report(self, tmp_path):
        code, out, _ = run(["compute", write_doc(tmp_path, K3_SUM)])
        assert code == 0
        assert "K_X divisibility 2" in out
        assert "even 7H + 4E8(-1)" in out

    def test_malformed_document_names_field(self, tmp_path):
        doc = dict(K3_SUM)
        doc["M"] = {"catalog": "E", "n": 2, "tyop": 3}
        code, _, err = run(["compute", write_doc(tmp_path, doc)])
        assert code == 2
        assert "tyop" in err

    def test_missing_file(self):
        code, _, err = run(["compute", "/nonexistent/problem.json"])
        assert code == 1
        assert "i/o error" in err

    def test_json_round_trip(self, tmp_path):
        code, out, _ = run(["compute", write_doc(tmp_path, K3_SUM), "--format", "json"])
        assert code == 0
        assert cli.dump_structured(json.loads(out)) == out

    def test_text_and_json_agree(self, tmp_path):
        path = write_doc(tmp_path, dict(K3_SUM, gluing={"a": [1, 0]}))
        _, text, _ = run(["compute", path])
        _, raw, _ = run(["compute", path, "--format", "json"])
        report = json.loads(raw)
        assert str(report["betti"]["b2"]) in text
        assert str(report["forms"]["divisibility"]["value"]) in text
        assert report["forms"]["form_class"]["decomposition"] in text
        assert str(report["forms"]["canonical_class"]["sigma_coeff"]) in text

    def test_t_override(self, tmp_path):
        path = write_doc(tmp_path, K3_SUM)
        code, out, _ = run(["compute", path, "--format", "json", "--t", "3,0"])
        assert code == 0
        report = json.loads(out)
        assert report["forms"]["canonical_class"]["t_coeffs"] == [3, 0]
        assert report["forms"]["canonical_class"]["r_coeffs"] == [3, 0]
        assert report["problem"]["t_supplied"] == [3, 0]
        assert report["warnings"] == []

    def test_t_override_length_checked(self, tmp_path):
        code, _, err = run(["compute", write_doc(tmp_path, K3_SUM), "--t", "1,2,3"])
        assert code == 2
        assert "length d" in err

    @pytest.mark.parametrize(
        "flag, message",
        [("", "t must have length d = 2, got 0"), (" ", "t must have length d = 2, got 0")]
        + [(flag, f"--t: expected a comma-separated integer list, got {flag!r}") for flag in ("1,x", "1,,0", "1.5")],
        ids=["empty", "blank", "letter", "gap", "float"],
    )
    def test_t_override_refused(self, tmp_path, flag, message):
        # A blank --t is the empty vector, not the default, so d = 2 refuses it.
        assert run(["compute", write_doc(tmp_path, K3_SUM), "--t", flag]) == (2, "", f"invalid input: {message}\n")

    def test_t_override_replaces_wrong_length_t(self, tmp_path):
        path = write_doc(tmp_path, dict(K3_SUM, t=[1, 2, 3]))
        code, _, err = run(["compute", path])
        assert code == 2
        assert err == "invalid input: t must have length d = 2, got 3\n"
        code, out, _ = run(["compute", path, "--format", "json", "--t", "3,0"])
        assert code == 0
        assert json.loads(out)["problem"]["t_supplied"] == [3, 0]

    def test_no_forms(self, tmp_path):
        code, out, _ = run(["compute", write_doc(tmp_path, K3_SUM), "--format", "json", "--no-forms"])
        assert code == 0
        report = json.loads(out)
        assert report["forms"] == {"skipped": ["disabled by --no-forms"]}

    def test_scope_gated_report(self, tmp_path):
        doc = {
            "M": {
                "name": "D", "b1": 0, "b2_plus": 2, "b2_minus": 2,
                "K_squared": 12, "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 2,
            },
            "N": {"catalog": "E", "n": 2},
            "gluing": {"a": [0, 0]},
        }
        code, out, _ = run(["compute", write_doc(tmp_path, doc), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert "skipped" in report["forms"]
        assert any("divisible" in reason for reason in report["forms"]["skipped"])
        assert any("forms skipped" in w for w in report["warnings"])

    def test_default_t_warns(self, tmp_path):
        code, out, _ = run(["compute", write_doc(tmp_path, K3_SUM), "--format", "json"])
        report = json.loads(out)
        assert any("t defaulted" in w for w in report["warnings"])
        assert report["problem"]["t_effective"] == [0, 0]

    def test_alpha_basis_echoed(self, tmp_path):
        code, out, _ = run(["compute", write_doc(tmp_path, K3_SUM), "--format", "json"])
        report = json.loads(out)
        assert report["problem"]["alpha_basis"] == [[1, 0], [0, 1]]

    def test_zero_canonical_class_rendered(self, tmp_path):
        doc = {
            "M": {"catalog": "E", "n": 1},
            "N": {"catalog": "E", "n": 1},
            "gluing": {"a": [0, 0]},
        }
        code, out, _ = run(["compute", write_doc(tmp_path, doc)])
        assert code == 0
        assert "K_X is the zero class" in out

    def test_unknown_parity_leaves_class_unavailable(self, tmp_path):
        doc = dict(K3_SUM, M=E2_UNKNOWN_PARITY)
        code, out, _ = run(["compute", write_doc(tmp_path, doc), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["forms"]["form_class"] == {
            "unavailable": "p_parity of side M is unknown; classification needs it"
        }
        assert report["forms"]["block_form"]["pm"]["parity"] == "unknown"

    def test_other_input_data_error_propagates(self, tmp_path):
        # From a document, validate and compute both refuse the side.
        message = "M: an even p_parity needs sigma = 0 (mod 8), got sigma = -2"
        path = write_doc(tmp_path, EVEN_SIGNATURE_18)
        for command in ("validate", "compute"):
            code, out, err = run([command, path])
            assert (code, out) == (2, "")
            assert err == f"invalid input: {message}\n"
        # parse_problem refuses it with that text; the same side built by
        # hand is refused by its constructor, without the "M: " prefix.
        with pytest.raises(model.DocumentError) as caught:
            model.parse_problem(EVEN_SIGNATURE_18)
        assert caught.value.messages == [message]
        with pytest.raises(model.DocumentError) as caught:
            make_side("P", genus=1, b2_plus=2, b2_minus=4, p_parity="even")
        assert caught.value.messages == [message.removeprefix("M: ")]

    def test_alpha_basis_outside_kernel_maps_to_exit_3(self, tmp_path, monkeypatch):
        doc = dict(K3_SUM)
        doc["M"] = {
            "name": "M", "b1": 1, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
            "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, "embedding_free": [[1, 0]],
        }
        path = write_doc(tmp_path, doc)
        assert run(["compute", path])[0] == 0
        original = intlat.kernel_and_cokernel
        monkeypatch.setattr(intlat, "kernel_and_cokernel", lambda A: (IntMatrix.from_rows([[1, 0]]), *original(A)[1:]))
        code, _, err = run(["compute", path])
        assert code == 3
        assert "not in the kernel" in err

    @pytest.mark.parametrize("field", ["b1", "b2_plus"])
    def test_rank_bookkeeping_fail_path(self, monkeypatch, field):
        # Each half of the check alone must fail it: b1 off by one, then
        # b2 off by one through b2_plus.
        original = engine._betti_numbers

        def off_by_one(problem, d):
            betti = original(problem, d)
            return dataclasses.replace(betti, **{field: getattr(betti, field) + 1})

        monkeypatch.setattr(engine, "_betti_numbers", off_by_one)
        report = cli.build_report(model.parse_problem(K3_SUM), include_forms=False)
        assert report["checks"]["rank_bookkeeping"]["pass"] is False
        line = next(x for x in cli.render_text(report).splitlines() if "rank bookkeeping" in x)
        assert line.endswith("[FAIL]")

    def test_internal_check_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(problem, include_forms=True):
            raise AssertionError("synthetic failure")

        monkeypatch.setattr(cli, "build_report", boom)
        code, _, err = run(["compute", write_doc(tmp_path, K3_SUM)])
        assert code == 3
        assert "internal check failed" in err


class TestValidate:
    def hostile(self, tmp_path, data: bytes) -> str:
        path = tmp_path / "hostile.json"
        path.write_bytes(data)
        proc = run_python(["-m", "fibresum.cli", "validate", str(path)])
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "invalid input" in proc.stderr
        return proc.stderr

    def test_huge_integer_exits_2(self, tmp_path):
        assert "not valid JSON" in self.hostile(tmp_path, b'{"M": ' + b"1" * 5000 + b"}")

    def test_deep_nesting_exits_2(self, tmp_path):
        assert "not valid JSON" in self.hostile(tmp_path, b"[" * 100_000)

    def test_undecodable_bytes_exit_2(self, tmp_path):
        assert "not valid JSON" in self.hostile(tmp_path, b'{"M": "\xff"}')

    @pytest.mark.parametrize("field", ["b1", "genus"])
    def test_negative_dimension_exits_2(self, tmp_path, field):
        side = {"name": "M", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, field: -1}
        doc = dict(K3_SUM, M=side)
        assert "M.embedding_free" in self.hostile(tmp_path, json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "fields",
        [
            {"b1": 2**62},
            {"genus": 2**62, "h1_torsion": [2]},
            {"b1": model.MAX_IMPLIED_CELLS // 2 + 1},
            {"genus": 0, "b1": 2**62},
        ],
        ids=["b1_2**62", "torsion_rows_2**62", "b1_over_cap", "genus_0_b1_2**62"],
    )
    def test_implied_size_over_cap_exits_2(self, tmp_path, fields):
        # The omitted embedding rows imply more zero cells than the cap; the
        # document is rejected before they are allocated.
        side = {"name": "M", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
                "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, **fields}
        doc = dict(K3_SUM, M=side)
        assert "omitted embedding rows" in self.hostile(tmp_path, json.dumps(doc).encode())

    @pytest.mark.parametrize("command", ["validate", "compute"])
    def test_genus_over_cap_exits_2(self, tmp_path, command):
        # b1 = 0 spells out no embedding cells, yet g = 513 implies a
        # 1026 x 1026 kernel transform; the rule fires before any reduction.
        side = {"name": "M", "b1": 0, "b2_plus": 2, "b2_minus": 2, "K_squared": 12,
                "K_dot_B": 0, "B_squared": 0, "genus": 513, "k": 1}
        doc = {"M": side, "N": dict(side, name="N"), "gluing": {"a": [0] * 1026}}
        path = tmp_path / "genus.json"
        path.write_text(json.dumps(doc))
        proc = run_python(["-m", "fibresum.cli", command, str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "invalid input: M: genus = 513 implies 1026 x 1026 cells, more than 1048576; "
            "N: genus = 513 implies 1026 x 1026 cells, more than 1048576\n"
        )

    @pytest.mark.parametrize("command", ["validate", "compute"])
    def test_kernel_check_over_cap_exits_2_fast(self, tmp_path, command):
        # 3.3 KB inside every other cap, but checking up to 1024 kernel
        # vectors against M's omitted 1024 x 1024 rows is 2^30 multiply-adds.
        start = time.perf_counter()
        assert run([command, write_doc(tmp_path, cap_document(512, 1024, 0))]) == (2, "", cap_refusal(1024, 1024))
        assert time.perf_counter() - start < 1

    def test_t_length_checked(self, tmp_path):
        code, _, err = run(["validate", write_doc(tmp_path, dict(K3_SUM, t=[1, 2, 3]))])
        assert code == 2
        assert err == "invalid input: t must have length d = 2, got 3\n"

    def test_valid(self, tmp_path):
        code, out, _ = run(["validate", write_doc(tmp_path, K3_SUM)])
        assert code == 0
        assert out.strip() == "valid"

    def test_invalid(self, tmp_path):
        doc = dict(K3_SUM, gluing={"a": [1]})
        code, _, err = run(["validate", write_doc(tmp_path, doc)])
        assert code == 2
        assert "gluing.a" in err


class TestCatalog:
    def test_k3(self):
        code, out, _ = run(["catalog", "E", "2"])
        assert code == 0
        side = json.loads(out)
        assert side["K_dot_B"] == 0
        assert side["B_squared"] == -2
        assert side["b2_plus"] == 3

    def test_rejects_zero(self):
        code, _, err = run(["catalog", "E", "0"])
        assert code == 2
        assert "n >= 1" in err

    def test_e4(self):
        code, out, _ = run(["catalog", "E", "4"])
        side = json.loads(out)
        assert side["K_dot_B"] == 2
        assert side["B_squared"] == -4

    def test_unknown_family(self):
        code, _, err = run(["catalog", "F", "1"])
        assert code == 2
        assert err == "unknown catalog 'F' (supported: 'E')\n"

    def test_json_round_trip(self):
        code, out, _ = run(["catalog", "E", "3"])
        assert code == 0
        assert cli.dump_structured(json.loads(out)) == out


class TestBatch:
    def test_divisibility_scan(self, tmp_path):
        docs = [
            {"M": {"catalog": "E", "n": 2}, "N": {"catalog": "E", "n": 2},
             "gluing": {"a": [p, 0]}}
            for p in range(5)
        ]
        code, out, _ = run(["batch", write_doc(tmp_path, docs), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        column = [
            item["report"]["forms"]["divisibility"]["value"] for item in payload["items"]
        ]
        assert column == [2, 1, 2, 1, 2]

    def test_empty_list(self, tmp_path):
        code, out, _ = run(["batch", write_doc(tmp_path, []), "--format", "json"])
        assert code == 0
        assert json.loads(out)["items"] == []

    def test_partial_failure(self, tmp_path):
        docs = [K3_SUM, {"M": {"catalog": "E", "n": 2}}, K3_SUM]
        code, out, _ = run(["batch", write_doc(tmp_path, docs), "--format", "json"])
        assert code == 2
        payload = json.loads(out)
        statuses = [item["status"] for item in payload["items"]]
        assert statuses == ["ok", "error", "ok"]
        assert payload["failures"] == 1

    def test_problems_wrapper_accepted(self, tmp_path):
        code, out, _ = run(
            ["batch", write_doc(tmp_path, {"problems": [K3_SUM]}), "--format", "json"]
        )
        assert code == 0
        assert len(json.loads(out)["items"]) == 1

    @pytest.mark.parametrize(
        "document", [{"items": [K3_SUM]}, {"problems": [K3_SUM], "count": 1}, {"problems": K3_SUM}, 5],
        ids=["other_key", "extra_key", "problems_not_array", "scalar"],
    )
    def test_neither_array_nor_wrapper(self, tmp_path, document):
        message = "invalid input: batch document: expected an array of problem documents\n"
        assert run(["batch", write_doc(tmp_path, document)]) == (2, "", message)

    def test_text_output(self, tmp_path):
        docs = [K3_SUM, {"M": {"catalog": "E", "n": 2}}]
        code, out, _ = run(["batch", write_doc(tmp_path, docs)])
        assert code == 2
        assert "--- problem 0: ok" in out
        assert "--- problem 1: error" in out
        assert "2 problem(s), 1 failure(s)" in out

    def test_json_round_trip(self, tmp_path):
        # The second item's error names a non-ASCII field, which the
        # canonical form escapes.
        docs = [K3_SUM, dict(K3_SUM, M={"catalog": "E", "n": 2, "gr\u00f6\u00dfe": 3})]
        code, out, _ = run(["batch", write_doc(tmp_path, docs), "--format", "json"])
        assert code == 2
        assert "gr\\u00f6\\u00dfe" in out
        assert cli.dump_structured(json.loads(out)) == out

    def test_internal_failure_isolated(self, tmp_path, monkeypatch):
        # The alpha-in-kernel check fails for the item whose stacked
        # embedding has a row; the other items keep their reports.
        side = {
            "name": "M", "b1": 1, "b2_plus": 2, "b2_minus": 2, "K_squared": 8,
            "K_dot_B": 0, "B_squared": 0, "genus": 1, "k": 1, "embedding_free": [[1, 0]],
        }
        docs = [K3_SUM, dict(K3_SUM, M=side), {"M": {"catalog": "E", "n": 2}}]
        original = intlat.kernel_and_cokernel

        def outside_kernel(A):
            basis, coker, lifts = original(A)
            return (IntMatrix.from_rows([[1, 0]]) if A.rows else basis, coker, lifts)

        monkeypatch.setattr(intlat, "kernel_and_cokernel", outside_kernel)
        path = write_doc(tmp_path, docs)
        code, out, _ = run(["batch", path, "--format", "json"])
        assert code == 3
        payload = json.loads(out)
        assert [item["status"] for item in payload["items"]] == ["ok", "internal", "error"]
        assert payload["items"][0]["report"] == cli.build_report(model.parse_problem(K3_SUM))
        assert "not in the kernel" in payload["items"][1]["error"]
        assert payload["failures"] == 2
        code, out, _ = run(["batch", path])
        assert code == 3
        assert "--- problem 1: internal" in out and "--- problem 2: error" in out


# 4,300 digits is the most CPython turns into text, or reads from it, by
# default.  Inputs stay within that limit while results outgrow it.
NINES_4300 = "9" * 4300


def long_h1_sum():
    """In-scope sides with rows [x, 1] and [1, x], x = 10^4299: the sum has
    H_1 = Z/(x^2 - 1), whose order is 8,598 nines."""
    x = 10**4299
    side = {"b1": 1, "b2_plus": 2, "b2_minus": 2, "K_squared": 8, "K_dot_B": 0,
            "B_squared": 0, "genus": 1, "k": 1}
    return {
        "M": dict(side, name="M", embedding_free=[[x, 1]]),
        "N": dict(side, name="N", embedding_free=[[1, x]]),
        "gluing": {"a": [0, 0]},
    }


class TestLongResults:
    def cli(self, *argv):
        proc = run_python(["-m", "fibresum.cli", *argv])
        assert "Traceback" not in proc.stderr
        return proc

    def test_catalog(self):
        # b2_minus = 10n - 1 of E(n) has 4,301 digits.
        proc = self.cli("catalog", "E", NINES_4300)
        assert proc.returncode == 0
        assert f'"b2_minus": {"9" * 4299}89,' in proc.stdout

    @pytest.mark.parametrize("command", ["validate", "compute"])
    def test_first_homology(self, tmp_path, command):
        proc = self.cli(command, write_doc(tmp_path, long_h1_sum()))
        assert proc.returncode == 0
        if command == "compute":
            assert f"H_1(X) = Z/{'9' * 8598}\n" in proc.stdout

    def test_batch_keeps_every_item(self, tmp_path):
        proc = self.cli("batch", write_doc(tmp_path, [K3_SUM, long_h1_sum()]))
        assert proc.returncode == 0
        assert "--- problem 0: ok\n" in proc.stdout and "--- problem 1: ok\n" in proc.stdout

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_limit_restored(self):
        # The limit is set here, so that a call earlier in the session that
        # left it lifted cannot make a lifted limit read as restored.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run(["catalog", "E", NINES_4300])[0] == 0
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(limit)


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(PINNED_CLI))
    def test_bytes(self, tmp_path, name):
        argv, doc, exit_code = PINNED_CLI[name]
        argv = [write_doc(tmp_path, doc) if arg == "{doc}" else arg for arg in argv]
        code, out, err = run(argv)
        assert (code, err) == (exit_code, "")
        assert out == (PINNED_DIR / f"{name}.txt").read_text()


class TestSnf:
    def snf(self, tmp_path, matrix):
        code, out, err = run(["snf", write_doc(tmp_path, matrix, name="matrix.json"), "--format", "json"])
        assert (code, err) == (0, "")
        return json.loads(out)

    def test_example_matrix(self, tmp_path):
        payload = self.snf(tmp_path, [[2, 4], [6, 8]])
        assert payload["diagonal"] == [2, 4]
        assert payload["rank"] == 2

    def test_pinned_payload(self, tmp_path):
        assert self.snf(tmp_path, [[-6, 8], [-8, 8], [-5, -9]]) == {
            "diagonal": [1, 2],
            "rank": 2,
            "kernel": [],
            "cokernel": {"free_rank": 1, "torsion": [2], "rendered": "Z + Z/2"},
        }
        assert self.snf(tmp_path, [[2, 4, -2], [1, 2, -1]]) == {
            "diagonal": [1, 0],
            "rank": 1,
            "kernel": [[1, 0, 1], [0, 1, 2]],
            "cokernel": {"free_rank": 1, "torsion": [], "rendered": "Z"},
        }

    def test_prints_only_invariants(self, tmp_path):
        # Row moves keep every field, the kernel included; row and column
        # moves keep the diagonal, the rank and the cokernel.  A transform
        # in the output would change under the row moves.
        rng = random.Random("snf-invariants")
        for _ in range(50):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, rng.choice([1, 4, 9]))
            p, q = random_unimodular(rng, rows), random_unimodular(rng, cols)
            payload = self.snf(tmp_path, m.to_rows())
            assert self.snf(tmp_path, matmul(p, m).to_rows()) == payload
            moved = self.snf(tmp_path, matmul(matmul(p, m), q).to_rows())
            assert moved == dict(payload, kernel=moved["kernel"])

    def test_text_output(self, tmp_path):
        path = write_doc(tmp_path, [[2, 4], [6, 8]], name="matrix.json")
        code, out, _ = run(["snf", path])
        assert code == 0
        assert "diagonal = [2, 4]" in out and "U =" not in out

    @pytest.mark.parametrize(
        "matrix, text",
        [
            (
                [[-6, 8], [-8, 8], [-5, -9]],
                "diagonal = [1, 2]\nrank = 2\nkernel = []\ncokernel = Z + Z/2\n",
            ),
            ([], "diagonal = []\nrank = 0\nkernel = []\ncokernel = 0\n"),
            ([[]], "diagonal = []\nrank = 0\nkernel = []\ncokernel = Z\n"),
        ],
        ids=["3x2", "0x0", "1x0"],
    )
    def test_pinned_text(self, tmp_path, matrix, text):
        code, out, _ = run(["snf", write_doc(tmp_path, matrix, name="matrix.json")])
        assert code == 0
        assert out == text

    def test_json_round_trip(self, tmp_path):
        path = write_doc(tmp_path, [[10**20, 7], [3, 10**20 + 1]], name="matrix.json")
        code, out, _ = run(["snf", path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["diagonal"] == [1, 10**40 + 10**20 - 21]
        assert cli.dump_structured(payload) == out

    def test_bad_matrix(self, tmp_path):
        path = write_doc(tmp_path, [[1, 2], [3]], name="matrix.json")
        code, _, err = run(["snf", path])
        assert code == 2
        assert "ragged" in err

    @pytest.mark.parametrize(
        "document", [{"matrix": [[1, 2]]}, [1, 2], 5, None], ids=["wrapper", "flat", "scalar", "null"]
    )
    def test_only_an_array_of_rows(self, tmp_path, document):
        # Only a bare array of rows is a matrix document; the {"matrix": ...}
        # wrapper is not one.
        code, out, err = run(["snf", write_doc(tmp_path, document, name="matrix.json")])
        assert (code, out) == (2, "")
        assert "matrix document: expected an array of integer rows" in err


def reference_json(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


LEVEL = enum.IntEnum("Level", "ONE TWO")


TEXT_POOLS = (
    [chr(c) for c in range(0x20, 0x7F)],
    [chr(c) for c in range(0x20)] + ["\x7f", '"', "\\"],
    [chr(c) for c in range(0x80, 0x800)],
    [chr(c) for c in range(0x800, 0xD800, 7)] + [chr(c) for c in range(0xE000, 0x10000, 7)],
    [chr(c) for c in range(0x10000, 0x110000, 4099)],
)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(rng.choice(TEXT_POOLS)) for _ in range(rng.randint(0, 8)))


def random_leaf(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice((1, -1)) * rng.getrandbits(rng.choice((1, 4, 16, 63, 64, 65, 200)))
    return random_text(rng)


def random_json_tree(rng: random.Random, leaves: int = 20):
    """A tree of at most ``leaves`` leaves: None, bools, ints of any size
    and text under lists, tuples and dicts with text keys, empty ones
    included."""
    if leaves <= 1 or rng.random() < 0.1:
        return random_leaf(rng)
    children = []
    while leaves and rng.random() < 0.9:
        share = rng.randint(1, leaves)
        children.append(random_json_tree(rng, share))
        leaves -= share
    kind = rng.randrange(3)
    if kind == 0:
        return children
    if kind == 1:
        return tuple(children)
    return {random_text(rng): child for child in children}


def leaf_count(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(map(leaf_count, value))
    return 1


class TestDumpStructured:
    """The canonical emitter against ``json.dumps(indent=2, sort_keys=True)``."""

    def test_matches_json_dumps(self):
        rng = random.Random(20261019)
        sizes = []
        for _ in range(600):
            value = random_json_tree(rng)
            sizes.append(leaf_count(value))
            assert cli.dump_structured(value) == reference_json(value)
        assert max(sizes) <= 20 and sum(size >= 10 for size in sizes) >= 100

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [{}, [], ()]},
            [[], {}, [[]]],
            "gr\u00f6\u00dfe \u2603 \U0001d11e",
            "\x00\x1f\t\n\r\x7f",
            'say "hi"',
            "back\\slash \\u0041",
            "lone \ud800 surrogate \udfff",
            {"\u00e9": "\u00e9", "\ud834": ["\"\\"]},
            [2**64, -(2**64) - 1, 10**40, -(2**200)],
            {"big": 2**63, "neg": -(2**63) - 1},
            [True, 1, False, 0, None],
            [1, True],
            {"one": 1, "true": True, "zero": 0, "false": False, "none": None},
        ],
    )
    def test_explicit_cases(self, value):
        assert cli.dump_structured(value) == reference_json(value)

    # Ints with |i| <= 256 are printed from the table ``cli._DECIMAL``, the
    # rest by ``int.__repr__``; the cases straddle that bound.
    LOW, HIGH = -256, 256

    def test_table_spans_the_bound(self):
        assert sorted(cli._DECIMAL) == list(range(self.LOW, self.HIGH + 1))
        assert all(text == str(i) for i, text in cli._DECIMAL.items())

    @pytest.mark.parametrize(
        "value",
        [
            [LOW, LOW - 1, HIGH, HIGH + 1],
            {"low": LOW, "below": LOW - 1, "high": HIGH, "above": HIGH + 1},
            HIGH + 1,
            LOW - 1,
            [0, -5, 5, 10**6, HIGH, -(2**70), 3],
            [[HIGH + 1, 0], [LOW, 2**64]],
        ],
        ids=["list", "dict", "above", "below", "mixed", "rows"],
    )
    def test_table_bound(self, value):
        assert cli.dump_structured(value) == reference_json(value)

    @pytest.mark.parametrize(
        "value",
        [[1, True], [False, 0, True, 1], [1, LEVEL.TWO, 300], {"level": LEVEL.TWO}, [LEVEL.TWO]],
        ids=["bool", "bools", "subclass", "subclass_value", "subclass_only"],
    )
    def test_not_exactly_int_in_int_list(self, value):
        # A bool is no int in JSON; an int subclass prints as its int.
        assert cli.dump_structured(value) == reference_json(value)

    def test_5000_digit_int(self):
        digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            cli._lift_digit_limit()
            value = {"big": 7 * 10**4999, "row": [-(10**4999), 1, self.HIGH]}
            assert len(str(value["big"])) == 5000
            assert cli.dump_structured(value) == reference_json(value)
        finally:
            if digits is not None:
                sys.set_int_max_str_digits(digits)

    @pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "a"}, {"a": {2: 3}}])
    def test_other_types_raise(self, value):
        with pytest.raises(TypeError):
            cli.dump_structured(value)


HOSTILE = (None, True, False, 1.5, "x", [1, 2], {"x": 1}, 10**30, -(10**30))


def value_paths(value, path=()):
    """The path to every value under ``value``, containers included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from value_paths(child, path + (key,))


def mutate_leaf(rng: random.Random, doc):
    """A copy of ``doc`` with one value replaced by a hostile one, or one
    dict key deleted."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(value_paths(doc))[1:])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(HOSTILE)
    return doc


class TestExitCodeContract:
    """Leaf mutations of valid documents exit 0 or 2 with no traceback."""

    PROBLEMS = [
        K3_SUM,
        ONE_CURVE_SUM,
        TORSION_SUM,
        EVEN_SIGNATURE_18,
        {"M": model.side_to_dict(model.elliptic_surface(1)), "N": model.side_to_dict(model.elliptic_surface(3)),
         "gluing": {"a": [1, 0]}, "t": [0, 0]},
    ]
    MATRICES = [[[2, 4], [6, 8]], [[1, 0, 0], [0, 2, 0]], [[0]]]

    def run_mutants(self, tmp_path, command, docs, count, seed):
        rng = random.Random(seed)
        path = tmp_path / "mutant.json"
        codes = set()
        for _ in range(count):
            doc = mutate_leaf(rng, rng.choice(docs))
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            try:
                code = cli.main([command, str(path)], stdout=out, stderr=err)
            except (Exception, SystemExit) as exc:
                pytest.fail(f"{command} {doc!r} raised {exc!r}")
            assert code in (0, 2), (command, doc, err.getvalue())
            assert "Traceback" not in err.getvalue()
            codes.add(code)
        return codes

    @pytest.mark.parametrize("command", ["compute", "validate"])
    def test_problem_documents(self, tmp_path, command):
        assert self.run_mutants(tmp_path, command, self.PROBLEMS, 120, f"contract-{command}") == {0, 2}

    def test_batch(self, tmp_path):
        batch = [self.PROBLEMS[:3], {"problems": self.PROBLEMS[3:]}]
        assert self.run_mutants(tmp_path, "batch", batch, 40, "contract-batch") == {0, 2}

    def test_snf(self, tmp_path):
        assert self.run_mutants(tmp_path, "snf", self.MATRICES, 60, "contract-snf") == {0, 2}

    @pytest.mark.parametrize("command", ["compute", "validate"])
    def test_just_over_kernel_check_cap(self, tmp_path, command):
        # The least total b1 past the cap, split at random; each side's
        # omitted rows stay inside MAX_IMPLIED_CELLS, which needs g >= 5.
        rng = random.Random(f"cap-{command}")
        for genus in sorted(rng.randint(5, 512) for _ in range(6)):
            b1, limit = model.MAX_KERNEL_CHECK // (2 * genus) ** 2 + 1, model.MAX_IMPLIED_CELLS // (2 * genus)
            b1_m = rng.randint(max(0, b1 - limit), min(b1, limit))
            doc = cap_document(genus, b1_m, b1 - b1_m)
            assert run([command, write_doc(tmp_path, doc)]) == (2, "", cap_refusal(b1, 2 * genus))

    def test_at_kernel_check_cap(self):
        # Through parse_problem only: analyse at the cap takes 0.6 to 0.9 s.
        for genus in (8, 64, 512):
            b1 = model.MAX_KERNEL_CHECK // (2 * genus) ** 2
            model.parse_problem(cap_document(genus, b1 // 2, b1 - b1 // 2))
