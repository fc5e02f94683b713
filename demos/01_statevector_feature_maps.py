"""Encode feature vectors as quantum states and check them against the dense oracle.

A feature map is defined by a Pauli menu, a repetition count and a rotation
factor alpha. Single-letter menu entries rotate each qubit; two-letter
entries act on every qubit pair. Run: python3 demos/01_statevector_feature_maps.py
"""
import numpy as np

from qsvm_boost import FeatureMapSpec, dense_term_unitary, dense_unitary_oracle, feature_map_states

np.set_printoptions(precision=4, suppress=True)

# build up a circuit by hand from dense matrices: |00> -> H layer -> exp(i * theta * ZZ)
h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
state = np.array([1, 0, 0, 0], dtype=complex)
print("initial |00>        :", state)
state = np.kron(h, h) @ state
print("after H on all      :", state)
state = dense_term_unitary("ZZ", 0.7) @ state
print("after exp(i 0.7 ZZ) :", state)
print()

# the same kind of circuit through a FeatureMapSpec
spec = FeatureMapSpec(n_qubits=2, labels=("Z", "ZZ"), reps=2, alpha=1.0)
print("spec:", spec.canonical())
print("expanded Pauli strings:", [str(p) for p in spec.paulis])

# feature_map_states encodes a batch of rows, one state per row
X = np.array([[0.5, 1.2], [2.0, 0.3]])
encoded = feature_map_states(spec, X)
for x, amplitudes in zip(X, encoded):
    print(f"state for x={x}:", amplitudes)
print("norms:", np.linalg.norm(encoded, axis=1))

# the dense oracle multiplies explicit layer matrices; its first column is
# the image of |00>, so it must reproduce the simulated state
oracle = dense_unitary_oracle(spec, X[0])
print("max |simulator - oracle column|:", np.abs(encoded[0] - oracle[:, 0]).max())
print("oracle unitarity error:", np.abs(oracle @ oracle.conj().T - np.eye(4)).max())

# alpha scales every rotation angle; alpha=0 collapses the circuit to
# Hadamard layers only, so the encoded state no longer depends on x
flat = FeatureMapSpec(2, ("Z", "ZZ"), reps=2, alpha=0.0)
print()
print("alpha=0 states (any x):", feature_map_states(flat, X))
