"""Seeded synthetic matrix and problem generation for tests, examples
and functional benchmarks."""

from __future__ import annotations

import numpy as np

from repro.model.workload import ProblemShape, SparseProblem
from repro.sparsity.config import NMPattern
from repro.utils.validation import check_int

__all__ = ["random_dense", "random_sparse_problem", "make_problem_suite"]


def random_dense(
    rows: int,
    cols: int,
    seed: int | np.random.Generator = 0,
    *,
    scale: float = 1.0,
) -> np.ndarray:
    """A reproducible float32 Gaussian matrix."""
    check_int("rows", rows, 1)
    check_int("cols", cols, 1)
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    return (rng.standard_normal((rows, cols)) * scale).astype(np.float32)


def random_sparse_problem(
    m: int,
    n: int,
    k: int,
    pattern: NMPattern,
    seed: int = 0,
) -> tuple[SparseProblem, np.ndarray, np.ndarray]:
    """A seeded ``(problem, A, B_dense)`` triple sized for the pattern
    (k padded to M, n to L)."""
    problem = SparseProblem(ProblemShape(m, n, k), pattern)
    rng = np.random.default_rng(seed)
    a = random_dense(m, pattern.padded_k(k), rng)
    b = random_dense(pattern.padded_k(k), pattern.padded_n(n), rng)
    return problem, a, b


def make_problem_suite(
    pattern: NMPattern, *, seed: int = 0
) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """A small suite of (label, A, B) pairs spanning the shape corner
    cases the kernels must handle: square, tall, wide, single-window
    and padding-required shapes."""
    ell = pattern.vector_length
    m_dim = pattern.m
    shapes = [
        ("square", 4 * m_dim, 4 * ell, 4 * m_dim),
        ("tall", 8 * m_dim, 2 * ell, 2 * m_dim),
        ("wide", 2 * m_dim, 8 * ell, 2 * m_dim),
        ("single-window", m_dim, ell, m_dim),
        ("deep", 2 * m_dim, 2 * ell, 8 * m_dim),
    ]
    rng = np.random.default_rng(seed)
    out = []
    for label, m, n, k in shapes:
        a = random_dense(m, k, rng)
        b = random_dense(k, n, rng)
        out.append((label, a, b))
    return out
