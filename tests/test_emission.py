"""Emission-protocol simulator against literal dense circuit simulation."""

import numpy as np
import pytest

from _oracles import (
    dense_protocol_state,
    haar_unitary,
    mpo_to_dense,
    placed,
    random_protocol,
    stabilizer_expectations,
    state_coefficients,
)

from mpo_tomo.channels import amplitude_damping, compose, pure_dephasing
from mpo_tomo.cluster import (
    ErrorModel,
    ideal_cluster_mpo,
    noisy_cluster_model,
)
from mpo_tomo.emission import (
    CONDITIONAL_EMISSION,
    TRANSFER_EMISSION,
    ProtocolImperfections,
    ProtocolSpec,
    build_cluster_protocol,
    emission_tensor,
    emit_mpo,
    emitter_basis,
    gate_process_matrix,
)
from mpo_tomo.errors import ValidationError
from mpo_tomo.mpo import fidelity


class TestEmitterBasis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality(self, d):
        basis = emitter_basis(d)
        gram = np.einsum("aij,bji->ab", basis, basis)
        assert np.allclose(gram, d * np.eye(d * d), atol=1e-12)
        assert np.allclose(basis[0], np.eye(d))
        for op in basis:
            assert np.allclose(op, op.conj().T, atol=1e-12)

    def test_unsupported_dimension(self):
        with pytest.raises(ValidationError):
            emitter_basis(5)


class TestEmissionTensor:
    def test_trace_preservation_invariant(self, rng):
        for d in (2, 3):
            em = emission_tensor(haar_unitary(2 * d, rng), d)
            # the photon-identity slice is the reduced emitter map; trace
            # preservation pins its identity-output row to "copy the input
            # identity coefficient": em[in, 0, out=0] = delta(in, 0)
            assert em[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
            assert np.allclose(em[1:, 0, 0], 0.0, atol=1e-12)

    def test_conditional_emission_map(self):
        # x|g> + y|e>  ->  x|e,0> + y|g,1>
        x, y = 0.6, 0.8
        inp = np.array([x, y], dtype=complex)
        out = CONDITIONAL_EMISSION @ np.kron(inp, [1, 0])
        expected = x * np.kron([0, 1], [1, 0]) + y * np.kron([1, 0], [0, 1])
        assert np.allclose(out, expected)

    def test_transfer_map(self):
        x, y = 0.6, 0.8
        inp = np.array([x, y], dtype=complex)
        out = TRANSFER_EMISSION @ np.kron(inp, [1, 0])
        expected = np.kron([1, 0], [x, y])
        assert np.allclose(out, expected)


class TestClusterProtocol:
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_ideal_protocol_is_cluster(self, n):
        m = emit_mpo(build_cluster_protocol(n))
        if n >= 3:
            assert abs(fidelity(m, ideal_cluster_mpo(n)) - 1.0) < 1e-10
        assert np.allclose(stabilizer_expectations(m), 1.0, atol=1e-10)

    def test_bond_dimensions_are_four(self):
        m = emit_mpo(build_cluster_protocol(6))
        assert m.bonds == (4,) * 5

    def test_minimum_length(self):
        with pytest.raises(ValidationError):
            build_cluster_protocol(1)

    def test_ghz_when_rotations_omitted(self):
        # cancel every rotation except the first: the emitter excitation is
        # never re-mixed, leaving GHZ-type entanglement
        n = 4
        offsets = np.zeros(n)
        offsets[1:] = np.pi / 2
        m = emit_mpo(
            build_cluster_protocol(n, ProtocolImperfections(rotation_offsets=tuple(offsets)))
        )
        rho = mpo_to_dense(m)
        diag = np.real(np.diag(rho))
        support = np.nonzero(diag > 1e-12)[0]
        assert list(support) == [0b0101, 0b1010]
        assert np.allclose(diag[support], 0.5, atol=1e-10)
        assert abs(rho[0b0101, 0b1010]) == pytest.approx(0.5, abs=1e-10)
        assert m.correlation((3, 3, 3, 3)) == pytest.approx(1.0, abs=1e-10)
        for s in range(1, 5):
            assert abs(m.correlation(placed((3,), s, 4))) < 1e-10

    def test_photon_loss_equals_noisy_model(self, rng):
        eps = 0.13
        imp = ProtocolImperfections(
            photon_channels=tuple(amplitude_damping(eps) for _ in range(5))
        )
        m1 = emit_mpo(build_cluster_protocol(5, imp))
        m2 = noisy_cluster_model(5, ErrorModel.uniform(5, eps, 0.0))
        for _ in range(300):
            w = tuple(rng.integers(0, 4, 5))
            assert abs(m1.correlation(w) - m2.correlation(w)) < 1e-10

    def test_coherent_rotation_offsets_change_state(self):
        imp = ProtocolImperfections(rotation_offsets=(0.0, 0.1, 0.0, 0.0, 0.0))
        m = emit_mpo(build_cluster_protocol(5, imp))
        assert fidelity(m, ideal_cluster_mpo(5)) < 0.999

    def test_emitter_channel_noise(self):
        chan = compose(pure_dephasing(0.1), amplitude_damping(0.05))
        imp = ProtocolImperfections(emitter_channels=(chan,) * 5)
        m = emit_mpo(build_cluster_protocol(5, imp))
        assert m.trace() == pytest.approx(1.0, abs=1e-10)
        assert fidelity(m, ideal_cluster_mpo(5)) < 1.0


class TestEmitMpo:
    def test_single_photon_protocol(self):
        # prepare (|0> + |1>)/sqrt(2) in one emission: <X_1> = 1
        basis = emitter_basis(2)
        ry = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
        spec = ProtocolSpec(
            d=2,
            rho0=np.array([1.0, 0, 0, 1.0]),
            gates=(gate_process_matrix(ry, basis),),
            emissions=(emission_tensor(TRANSFER_EMISSION, 2, basis),),
        )
        m = emit_mpo(spec)
        assert m.n_qubits == 1
        assert m.correlation((1,)) == pytest.approx(1.0, abs=1e-12)
        assert m.trace() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_protocol_matches_dense_circuit(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 4, 2
        basis = emitter_basis(d)
        ug = [haar_unitary(d, rng) for _ in range(n)]
        ue = [haar_unitary(2 * d, rng) for _ in range(n)]
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        spec = ProtocolSpec(
            d=d,
            rho0=state_coefficients(ground, basis),
            gates=tuple(gate_process_matrix(u, basis) for u in ug),
            emissions=tuple(emission_tensor(u, d, basis) for u in ue),
        )
        m = emit_mpo(spec)
        rho = dense_protocol_state(ug, ue, d)
        assert np.max(np.abs(mpo_to_dense(m) - rho)) < 1e-10

    def test_random_words_against_dense(self, rng):
        n, d = 6, 2
        basis = emitter_basis(d)
        ug = [haar_unitary(d, rng) for _ in range(n)]
        ue = [haar_unitary(2 * d, rng) for _ in range(n)]
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        spec = ProtocolSpec(
            d=d,
            rho0=state_coefficients(ground, basis),
            gates=tuple(gate_process_matrix(u, basis) for u in ug),
            emissions=tuple(emission_tensor(u, d, basis) for u in ue),
        )
        m = emit_mpo(spec)
        rho = dense_protocol_state(ug, ue, d)
        from _oracles import dense_correlation

        for _ in range(500):
            w = tuple(rng.integers(0, 4, n))
            assert abs(m.correlation(w) - dense_correlation(rho, w)) < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bond_bound(self, d):
        m = emit_mpo(random_protocol(4, d, seed=5))
        assert max(m.bonds) <= d * d
        assert m.trace() == pytest.approx(1.0, abs=1e-9)

    def test_d3_dense_equivalence(self, rng):
        n, d = 3, 3
        basis = emitter_basis(d)
        ug = [haar_unitary(d, rng) for _ in range(n)]
        ue = [haar_unitary(2 * d, rng) for _ in range(n)]
        ground = np.zeros((d, d), dtype=complex)
        ground[0, 0] = 1.0
        spec = ProtocolSpec(
            d=d,
            rho0=state_coefficients(ground, basis),
            gates=tuple(gate_process_matrix(u, basis) for u in ug),
            emissions=tuple(emission_tensor(u, d, basis) for u in ue),
        )
        m = emit_mpo(spec)
        rho = dense_protocol_state(ug, ue, d)
        assert np.max(np.abs(mpo_to_dense(m) - rho)) < 1e-10


class TestProtocolSpecFormat:
    def test_gate_emission_count_mismatch(self):
        good = build_cluster_protocol(3)
        with pytest.raises(ValidationError):
            ProtocolSpec(
                d=2, rho0=good.rho0, gates=good.gates[:-1], emissions=good.emissions
            )

    def test_non_trace_preserving_gate_rejected(self):
        good = build_cluster_protocol(3)
        bad = np.array(good.gates[0])
        bad[0, 1] = 0.2  # leaks weight into the trace row
        with pytest.raises(ValidationError):
            ProtocolSpec(
                d=2, rho0=good.rho0, gates=(bad,) + good.gates[1:], emissions=good.emissions
            )
