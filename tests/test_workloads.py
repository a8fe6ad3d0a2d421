"""Unit tests for the workload catalogs (Llama dataset, Table II)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.model.workload import ProblemShape, SparseProblem
from repro.sparsity.config import NMPattern
from repro.workloads.cases import (
    PAPER_SPARSITY_PATTERNS,
    STEPWISE_SHAPE,
    TABLE_II_CASES,
    paper_patterns,
    table_ii_case,
)
from repro.workloads.llama import (
    LLAMA_MODELS,
    PAPER_M_VALUES,
    build_paper_dataset,
    llama_layer_shape,
    llama_layer_shapes,
)
from repro.workloads.synthetic import (
    make_problem_suite,
    random_dense,
    random_sparse_problem,
)


class TestLlamaDataset:
    def test_exactly_100_points(self):
        """§IV-A: 'Our dataset consists of 100 data points'."""
        assert len(build_paper_dataset()) == 100

    def test_five_m_values(self):
        """m ranges over 2^8 .. 2^12."""
        assert PAPER_M_VALUES == (256, 512, 1024, 2048, 4096)
        ms = {p.shape.m for p in build_paper_dataset()}
        assert ms == set(PAPER_M_VALUES)

    def test_twenty_tuples_per_m(self):
        """each m has 20 (n, k) tuples."""
        points = build_paper_dataset()
        for m in PAPER_M_VALUES:
            tuples = {(p.shape.n, p.shape.k) for p in points if p.shape.m == m}
            assert len(tuples) == 20

    def test_known_llama_geometry(self):
        by_name = {mod.name: mod for mod in LLAMA_MODELS}
        assert by_name["Llama-7B"].hidden == 4096
        assert by_name["Llama-7B"].ffn == 11008
        assert by_name["Llama-65B"].hidden == 8192
        assert by_name["Llama-65B"].ffn == 22016

    def test_layer_shapes_distinct(self):
        for model in LLAMA_MODELS:
            shapes = llama_layer_shapes(model)
            assert len({(n, k) for _, n, k in shapes}) == 5

    def test_layer_shape_lookup(self):
        assert llama_layer_shape("llama-7b", "attn-qkvo") == (4096, 4096)
        assert llama_layer_shape(LLAMA_MODELS[3], "lm-head") == (32000, 8192)
        for model in LLAMA_MODELS:
            for name, n, k in llama_layer_shapes(model):
                assert llama_layer_shape(model, name) == (n, k)

    def test_layer_shape_unknown_layer(self):
        with pytest.raises(ConfigurationError, match="unknown layer"):
            llama_layer_shape("llama-7b", "embeddings")

    def test_indices_sequential(self):
        points = build_paper_dataset()
        assert [p.index for p in points] == list(range(100))

    def test_labels(self):
        p = build_paper_dataset()[0]
        assert "Llama" in p.label()


class TestTableII:
    def test_all_cases_present(self):
        assert sorted(TABLE_II_CASES) == ["A", "B", "C", "D", "E", "F"]

    def test_exact_shapes(self):
        assert TABLE_II_CASES["A"] == ProblemShape(512, 512, 512)
        assert TABLE_II_CASES["B"] == ProblemShape(512, 1024, 1024)
        assert TABLE_II_CASES["C"] == ProblemShape(512, 2048, 2048)
        assert TABLE_II_CASES["D"] == ProblemShape(1024, 2048, 2048)
        assert TABLE_II_CASES["E"] == ProblemShape(2048, 4096, 4096)
        assert TABLE_II_CASES["F"] == ProblemShape(4096, 4096, 4096)

    def test_lookup(self):
        assert table_ii_case("a").m == 512
        with pytest.raises(ConfigurationError):
            table_ii_case("Z")

    def test_stepwise_shape(self):
        assert STEPWISE_SHAPE == ProblemShape(4096, 4096, 4096)


class TestPaperPatterns:
    def test_four_sparsities(self):
        pats = paper_patterns()
        assert [p.sparsity for p in pats] == [0.5, 0.625, 0.75, 0.875]

    def test_include_dense(self):
        pats = paper_patterns(include_dense=True)
        assert pats[0].n == pats[0].m
        assert len(pats) == 5

    def test_m32_everywhere(self):
        """Fig. 7's 0% config uses M = N = 32."""
        assert PAPER_SPARSITY_PATTERNS[0.0] == (32, 32)
        for _, (_n, m) in PAPER_SPARSITY_PATTERNS.items():
            assert m == 32


class TestSynthetic:
    def test_random_dense_deterministic(self):
        a = random_dense(4, 4, seed=7)
        b = random_dense(4, 4, seed=7)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_random_sparse_problem_padding(self):
        pattern = NMPattern(2, 8, vector_length=4)
        problem, a, b = random_sparse_problem(10, 10, 10, pattern)
        assert isinstance(problem, SparseProblem)
        assert a.shape == (10, 16)  # k padded to M=8 multiple
        assert b.shape == (16, 12)  # n padded to L=4 multiple

    def test_problem_suite_labels(self):
        pattern = NMPattern(2, 8, vector_length=4)
        suite = make_problem_suite(pattern)
        labels = [label for label, _, _ in suite]
        assert "square" in labels and "single-window" in labels
        for _, a, b in suite:
            assert a.shape[1] == b.shape[0]


class TestSparseProblem:
    def test_w_and_flops(self):
        problem = SparseProblem(ProblemShape(64, 64, 64), NMPattern(2, 8, 4))
        assert problem.w == 16
        assert problem.useful_flops == 2 * 64 * 64 * 16
        assert problem.sparsity == 0.75
        assert problem.ideal_speedup == 4.0

