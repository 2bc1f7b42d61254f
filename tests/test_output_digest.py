"""Outputs byte-identical: scripts/output_digest.py on seed 1 of each
benchmark workload.  A change that alters an output on purpose updates
its digest here and says why in CHANGES.md."""

import pytest

from helpers import script_fixture

script = script_fixture("output_digest")


@pytest.mark.parametrize("workload, commands, sha256", [
    ("lemma", 45, "5c978597a9cc128a3a06810d84650a53cda99a5f6b01d1ff36cd899b30f9b29d"),
    ("search", 23, "c2768555dea68a1c11d181c6e9a8ad759b0aa0cf9bc87492f9e0f8efe0fca8b7"),
    ("reduce", 75, "d92322623756ec684784dfeafea62f74ab938476e5f5cbab71ad6c48d62651e4"),
])
def test_seed_one_digest(script, workload, commands, sha256):
    assert script.digest(workload, [1]) == (commands, sha256)
