from __future__ import annotations

import pytest

from quatforms import InvalidTypeError, SimpleType, build_root_system, parse_type
from quatforms.classify import CLASSICAL_FAMILIES, generator_config
from quatforms.rootsys import CLASSICAL_RANK_CAP

EXCEPTIONAL_LABELS = ["G2", "F4", "E6", "E7", "E8"]


def _buildable(family: str, rank: int) -> bool:
    try:
        SimpleType(family, rank)
    except InvalidTypeError:
        return False
    return True


# Every buildable type: classical families up to the rank cap plus exceptionals.
SUPPORTED_LABELS = [
    f"{family}{n}"
    for family in CLASSICAL_FAMILIES
    for n in range(1, CLASSICAL_RANK_CAP + 1)
    if _buildable(family, n)
] + EXCEPTIONAL_LABELS

# Types with a quaternionic node grading (everything of rank >= 2).
GRADED_LABELS = [s for s in SUPPORTED_LABELS if s != "A1"]

# Ranks at which the classifier is validated against the golden registry.
CLASSIFY_LABELS = EXCEPTIONAL_LABELS + [
    f"{family}{n}"
    for family, config in generator_config().items()
    for n in range(config["tested_ranks"][0], config["tested_ranks"][1] + 1)
]


@pytest.fixture(scope="session")
def rs_of():
    def _get(label: str):
        return build_root_system(parse_type(label))

    return _get
