"""Unit tests for the CLI entry points."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig7_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.experiment == "fig7"
        assert args.gpus == ["A100", "3090", "4090"]

    def test_fig9_options(self):
        args = build_parser().parse_args(
            ["fig9", "--gpu", "3090", "--limit", "5", "--per-point"]
        )
        assert args.gpu == "3090"
        assert args.limit == 5
        assert args.per_point

    def test_version(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_serve_sim_backend_choices_track_registry(self):
        """--backend accepts exactly the registry's names, so a
        registered backend is immediately reachable from the CLI."""
        from repro.backends import backend_names

        args = build_parser().parse_args(["serve-sim"])
        assert args.backend == "auto"
        for name in backend_names():
            args = build_parser().parse_args(["serve-sim", "--backend", name])
            assert args.backend == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-sim", "--backend", "turbo"])

    def test_backends_subcommand_parses(self):
        assert build_parser().parse_args(["backends"]).experiment == "backends"


class TestMain:
    def test_fig7_single_gpu(self, capsys):
        assert main(["fig7", "--gpus", "A100"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "A100" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_fig9_limited(self, capsys):
        assert main(["fig9", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "geomean speedup" in out

    def test_fig10(self, capsys):
        assert main(["fig10"]) == 0
        assert "roofline" in capsys.readouterr().out.lower()

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_backends_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("auto", "fast", "structural", "dense_scatter"):
            assert name in out
        assert "recorded" in out and "analytic" in out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestBadInput:
    """A library error from any subcommand exits with one
    ``<command>: <message>`` line instead of a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-sim", "--max-batch-rows", "0"],
            ["serve-sim", "--max-batch-requests", "0"],
            ["serve-sim", "--max-wait-ms", "-1"],
            ["serve-sim", "--opt-version", "V9"],
            ["sweep", "--shapes", "0x0x0"],
            ["sweep", "--shapes", "axbxc"],
            ["sweep", "--sparsities", "1.5"],
            ["validate", "--n-ratio", "0"],
            ["table1", "--max-block", "0"],
        ],
    )
    def test_one_line_exit(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith(f"{argv[0]}: ")
        assert "\n" not in message

    def test_bad_policy_closes_the_stream_writer(self, tmp_path, monkeypatch):
        import repro.obs

        writers = []

        class Recording(repro.obs.StreamingJsonlWriter):
            def __init__(self, path):
                super().__init__(path)
                writers.append(self)

        monkeypatch.setattr(repro.obs, "StreamingJsonlWriter", Recording)
        path = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit, match="^serve-sim: max_batch_rows"):
            main([
                "serve-sim", "--max-batch-rows", "0", "--trace", str(path),
                "--trace-format", "jsonl-stream",
            ])
        (writer,) = writers
        assert writer._fh is None
