"""The standard-form template: the one definition of every pinned entry."""

import numpy as np
import pytest

from _oracles import random_protocol
from conftest import random_mpo
from mpo_tomo.cluster import ErrorModel, noisy_cluster_model
from mpo_tomo.emission import emit_mpo
from mpo_tomo.mpo import Mpo, pad_bond
from mpo_tomo.standard_form import (
    _template,
    free_masks,
    is_standard_form,
    pack,
    to_standard_form,
    unpack,
)


def _chain(kind):
    rng = np.random.default_rng(5)
    if kind == "protocol_d3":
        return emit_mpo(random_protocol(6, 3, seed=2))  # bonds 9
    if kind == "padded":
        # bond 2 < 4, so to_standard_form pads the bond left of site N - 1
        return random_mpo(5, 2, rng, scale=0.6)
    n = int(kind)
    if n <= 3:
        return random_mpo(n, 3, rng, scale=0.6)
    return pad_bond(noisy_cluster_model(n, ErrorModel.uniform(n, 0.09, 0.06)), 2, 6)


CHAINS = ["2", "3", "5", "8", "protocol_d3", "padded"]


@pytest.fixture(params=CHAINS)
def standard(request):
    m = _chain(request.param)
    assert abs(m.trace()) > 1e-6
    return to_standard_form(m)


def _template_of(mpo):
    return _template([t.shape for t in mpo.tensors])


class TestTemplate:
    def test_pinned_entries_equal_template_values(self, standard):
        assert standard.tensors[-1].shape == (4, 4, 1)
        for t, (mask, values) in zip(standard.tensors, _template_of(standard)):
            assert np.array_equal(t[~mask], values[~mask])
        assert is_standard_form(standard)

    def test_moving_one_pinned_entry_breaks_standard_form(self, standard):
        for k, (mask, _) in enumerate(_template_of(standard)):
            for index in zip(*np.nonzero(~mask)):
                ts = [np.array(t) for t in standard.tensors]
                ts[k][index] += 2e-9
                assert not is_standard_form(Mpo(ts)), (k, index)

    def test_moving_free_entries_keeps_standard_form(self, standard):
        masks = free_masks(standard)
        theta = pack(standard.tensors, masks)
        shift = np.random.default_rng(1).choice([-1e-3, 1e-3], size=theta.size)
        assert is_standard_form(unpack(theta + shift, standard, masks))

    def test_last_site_shape_checked(self):
        ts = [np.zeros((1, 4, 2)), np.zeros((2, 4, 1))]
        ts[0][0, 0, 0] = 1.0
        assert not is_standard_form(Mpo(ts))
