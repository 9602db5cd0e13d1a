"""Shared fixtures.  Analyses are expensive, so each is built once per session."""

import json

import pytest

from misere_quotients import builder, verifier


@pytest.fixture(scope="session")
def qa123_12():
    return builder.build_quotient("0.123", 12)


@pytest.fixture(scope="session")
def qa123(qa123_12):
    cert = verifier.certify_period(qa123_12, 6, 5)
    assert cert is not None
    return cert


@pytest.fixture(scope="session")
def qa123_20():
    return builder.build_quotient("0.123", 20)


@pytest.fixture(scope="session")
def kayles():
    return builder.kayles_analysis()


@pytest.fixture
def forged_analysis_text():
    """An analysis file whose 65-element commutative table breaks one product
    (2 * 3 = 0 in Z/65) and whose empty generator_map generates nothing, so
    no generating set would let the monoid check its associativity."""
    k = 65
    rows = [[(i + j) % k for j in range(k)] for i in range(k)]
    rows[2][3] = rows[3][2] = 0
    doc = {
        "code": "0.123", "play": "misere", "n": 3,
        "generators": [], "words": [], "names": [f"g{i}" for i in range(k)],
        "table": rows, "generator_map": {}, "generator_heaps": {},
        "phi": [1, 2, 3], "claimed_period": None, "p_set": [0],
        "verified_to": 3, "certified_period": None,
    }
    return json.dumps(doc)
