"""The random builders in ``helpers`` draw the same sides and problems,
consuming the same random numbers, however their validity is decided.

Each digest is the SHA-256 of the canonical JSON of the first 50 draws
that the builder accepts at one of the suites' seeds.  The digests were
recorded when the validity of a drawn side was still decided after it
was built, so a builder that skipped, reordered or added a draw when a
side is refused at construction would change them.
"""

import hashlib
import json
import random

import pytest

from fibresum import model
from helpers import random_problem_any, random_scope_problem, random_valid_side


def digest(documents) -> str:
    return hashlib.sha256(json.dumps(documents, sort_keys=True).encode()).hexdigest()


def accepted_sides(seed: int, genus: int, torsion_free: bool) -> list[dict]:
    rng = random.Random(seed)
    sides = []
    while len(sides) < 50:
        side = random_valid_side(rng, "M", genus, torsion_free=torsion_free)
        if side is not None:
            sides.append(model.side_to_dict(side))
    return sides


def problems(helper, seed: int, **kwargs) -> list[dict]:
    rng = random.Random(seed)
    return [model.problem_to_dict(helper(rng, **kwargs)) for _ in range(50)]


@pytest.mark.parametrize(
    "draw, expected",
    [
        (lambda: accepted_sides(0xF1B5, 2, True),
         "9a3edbc424cce1eead0588f10f1878d8ecadd871a61ee716165dbef42e10b3f0"),
        (lambda: accepted_sides(4242, 3, False),
         "57c2062f55fba5adce9c2b5c86542508864339b88b71b441bd844289a1752f71"),
        (lambda: problems(random_scope_problem, 0xF1B5, g_max=5, b1_max=6, entry_bound=5, a_bound=10),
         "0ee4eb9511dba4d371f7e256e9ede8c41860a497e8d798d1955ccc5553aa5c15"),
        (lambda: problems(random_scope_problem, 2026, with_t=False),
         "de8105cd264142b4f74daad61f30b52366c0d454eecb9de55fcad807dd8d1bfa"),
        (lambda: problems(random_problem_any, 4242),
         "0d1cf052a45474a6884b51f52619f5c178365dfa9f2c355e48d6b4e38e9be830"),
        (lambda: problems(random_problem_any, 0xADD),
         "dfdaf81e943f56914c6d05ddbd9050fa701b6f5cd882ffd5342ff77bca4ec296"),
    ],
    ids=["side_F1B5", "side_4242_torsion", "scope_F1B5", "scope_2026", "any_4242", "any_ADD"],
)
def test_helper_draws_unchanged(draw, expected):
    assert digest(draw()) == expected
