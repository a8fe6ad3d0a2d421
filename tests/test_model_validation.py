"""Tests for the model self-validation feature."""

import pytest

from repro.model.validation import ValidationReport, validate_model
from repro.sparsity.config import NMPattern


class TestValidateModel:
    @pytest.fixture(scope="class")
    def report(self) -> ValidationReport:
        return validate_model()

    def test_exact_quantities_agree(self, report):
        """Analytic counts must match the executable trace exactly."""
        assert report.max_rel_error(exclude_expected=True) < 1e-9

    def test_packed_expectation_close(self, report):
        """The random-pattern expectation tracks a single draw."""
        row = report.row("packed A staged bytes (expected vs one draw)")
        assert row.rel_error < 0.15

    def test_row_lookup(self, report):
        assert report.row("fma ops").analytic == report.row("fma ops").measured
        with pytest.raises(KeyError):
            report.row("bogus")

    def test_render(self, report):
        text = report.render()
        assert "Model validation" in text
        assert "fma ops" in text

    @pytest.mark.parametrize(
        "pattern",
        [
            NMPattern(1, 4, vector_length=2),
            NMPattern(4, 8, vector_length=4),
            NMPattern(4, 16, vector_length=8),
        ],
        ids=lambda p: p.label(),
    )
    def test_other_patterns_also_exact(self, pattern):
        report = validate_model(pattern)
        assert report.max_rel_error(exclude_expected=True) < 1e-9

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    def test_every_cli_m_ratio_fits_the_k_step(self, m):
        # The default k-step is two windows, or all of k=64 when one
        # window already fills it (M = 64).
        report = validate_model(NMPattern(2, m, vector_length=4))
        assert report.params.ks <= 64
        assert report.max_rel_error() <= 1e-6

    def test_cli_validate(self, capsys):
        from repro.cli import main

        assert main(["validate"]) == 0
        assert "max relative error" in capsys.readouterr().out
