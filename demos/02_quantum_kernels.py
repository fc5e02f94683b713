"""Assemble fidelity-kernel Gram matrices and verify their properties.

The kernel of two samples is the squared overlap of their encoded states,
so self-Grams are symmetric, PSD, and have unit diagonal. Run:
python3 demos/02_quantum_kernels.py
"""
import numpy as np

from qsvm_boost import (
    FeatureMapSpec,
    GramCache,
    gram_matrix,
    make_circles,
    rbf_gram,
    split_and_scale,
)

np.set_printoptions(precision=3, suppress=True)

spec = FeatureMapSpec(n_qubits=2, labels=("Z", "ZZ"), reps=2, alpha=1.0)
x, y = np.array([[0.5, 1.2]]), np.array([[2.0, 0.3]])  # one sample per row
print("k(x, x) =", gram_matrix(spec, x, x).values[0, 0])
print("k(x, y) =", gram_matrix(spec, x, y).values[0, 0])
print("k(y, x) =", gram_matrix(spec, y, x).values[0, 0])
print()

# a small circles dataset, scaled to [0, pi] as the SVMs consume it
split = split_and_scale(make_circles(60, seed=7), (20, 20, 20), seed=1)
gram = gram_matrix(spec, split.train.X)
print("train Gram shape:", gram.values.shape)
print("symmetric:", np.array_equal(gram.values, gram.values.T))
print("diagonal:", gram.values.diagonal()[:5], "...")
print("min eigenvalue:", np.linalg.eigvalsh(gram.values).min())
print()

# the cache reuses a Gram across repeated requests (same spec, same data)
cache = GramCache()
first = cache.fidelity(spec, split.train.X)
again = cache.fidelity(spec, split.train.X)
print("cache returns the stored matrix on a hit:", first is again)
cross = cache.fidelity(spec, split.val.X, split.train.X)
print("val x train Gram shape:", cross.values.shape, "| cached matrices:", len(cache))

# classical baseline kernel for comparison
print()
print("rbf k(x, y) gamma=1:", rbf_gram(x, y, gamma=1.0).values[0, 0])
