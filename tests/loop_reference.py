"""Loop versions of the product-space routines, kept as references.

The package builds the joint kernel, the Hamming-1 neighbour pairs, the
subset marginals of Delta_k and the exact oracle's pair maximum with
NumPy index arithmetic.  These are the nested-loop forms they replaced,
one state at a time.  `test_vectorised.py` asserts that both give
bit-identical results.
"""

import itertools

import numpy as np
from scipy.special import logsumexp

from csdp import aged_joint, backward_conditional
from csdp.bounds import _laplace_logcdf, _laplace_logsf, _theta_grid


def joint_kernel_matrix(model) -> np.ndarray:
    s, m = model.space.num_sequences, model.space.num_states
    states = tuple(itertools.product(range(m), repeat=s))
    n = len(states)
    K = np.empty((n, n))
    for ai, a in enumerate(states):
        laws = []
        for j in range(s):
            v = np.zeros(m)
            for k in range(s):
                if model.weights[j, k]:
                    v += model.weights[j, k] * model.transitions[j, k][:, a[k]]
            laws.append(v)
        for bi, b in enumerate(states):
            p = 1.0
            for j in range(s):
                p *= laws[j][b[j]]
            K[bi, ai] = p
    return K


def joint_stationary(K: np.ndarray, tol: float = 1e-13, max_iter: int = 10**6) -> np.ndarray:
    n = K.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = K @ pi
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    raise AssertionError("joint stationary distribution did not converge")


def neighbour_pairs(states) -> list:
    pairs = []
    for ai, a in enumerate(states):
        for bi, b in enumerate(states):
            if ai < bi and sum(x != y for x, y in zip(a, b)) == 1:
                pairs.append((ai, bi))
    return pairs


def hamming_costs(states) -> np.ndarray:
    return np.array(
        [[sum(a != b for a, b in zip(z, w)) for w in states] for z in states],
        dtype=float,
    )


def aged_tv_distance(kernel, age, degree: int) -> float:
    s, m = kernel.space.num_sequences, kernel.space.num_states
    J = aged_joint(kernel, age)
    size = min(degree, s)
    best = 0.0
    substates = list(itertools.product(range(m), repeat=size))
    sub_index = {st: i for i, st in enumerate(substates)}
    for subset in itertools.combinations(range(s), size):
        M = np.zeros((len(substates), len(substates)))
        for zi, z in enumerate(kernel.states):
            zk = sub_index[tuple(z[i] for i in subset)]
            for xi, x in enumerate(kernel.states):
                xk = sub_index[tuple(x[i] for i in subset)]
                M[zk, xk] += J[zi, xi]
        totals = M.sum(axis=0)
        B = M / totals[None, :]
        for ai, bi in neighbour_pairs(substates):
            best = max(best, 0.5 * float(np.abs(B[:, ai] - B[:, bi]).sum()))
    return best


def exact_oracle(kernel, params) -> float:
    query = params.query
    B = backward_conditional(kernel, params.age)
    f_values = np.array([query.evaluate(z) for z in kernel.states])
    b = query.sensitivity(1) / params.eps_c
    thetas = _theta_grid(f_values, b)
    with np.errstate(divide="ignore"):
        logB = np.where(B > 0, np.log(np.maximum(B, 1e-300)), -np.inf)
    best = 0.0
    lc = _laplace_logcdf(thetas[:, None] - f_values[None, :], b)
    ls = _laplace_logsf(thetas[:, None] - f_values[None, :], b)
    for ai, bi in neighbour_pairs(kernel.states):
        F1 = logsumexp(lc + logB[None, :, ai], axis=1)
        F2 = logsumexp(lc + logB[None, :, bi], axis=1)
        S1 = logsumexp(ls + logB[None, :, ai], axis=1)
        S2 = logsumexp(ls + logB[None, :, bi], axis=1)
        best = max(best, float(np.abs(F1 - F2).max()), float(np.abs(S1 - S2).max()))
    return best
