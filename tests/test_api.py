"""The public call signatures: a new keyword option is an explicit edit here."""

import inspect

import pytest

from mhjump import first_jump_displacements, simulate_ensemble, simulate_langevin, simulate_path

KEYWORD_ONLY = {
    simulate_path: ("rate_scale",),
    simulate_ensemble: ("rescaled", "threads", "return_counts"),
    simulate_langevin: ("threads",),
    first_jump_displacements: (),
}


@pytest.mark.parametrize("fn", list(KEYWORD_ONLY), ids=lambda fn: fn.__name__)
def test_keyword_only_parameters_are_pinned(fn):
    params = inspect.signature(fn).parameters.values()
    assert tuple(p.name for p in params if p.kind is p.KEYWORD_ONLY) == KEYWORD_ONLY[fn]
