"""MPO tomography of sequentially emitted chains of photonic qubits.

Reconstructs the density matrix of an entangled qubit chain as a matrix
product operator from local correlation measurements, with full statistical
uncertainty propagation, plus a simulator of the noisy emission protocol
that generates the measurement data.
"""
