"""Tests for the command-line interface (fast commands only)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, cmd_datasets, cmd_circuits, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "iris"])
        assert args.dataset == "iris"
        assert args.budget_fraction == 0.4
        assert args.af == "p-tanh"

    def test_train_absolute_budget(self):
        args = build_parser().parse_args(["train", "iris", "--budget-mw", "0.5"])
        assert args.budget_mw == 0.5

    def test_grid_budget_list(self):
        args = build_parser().parse_args(["grid", "iris", "seeds", "--budgets", "0.2", "0.8"])
        assert args.datasets == ["iris", "seeds"]
        assert args.budgets == [0.2, 0.8]

    def test_sweep_args(self):
        args = build_parser().parse_args(["sweep", "seeds", "--n-alphas", "3"])
        assert args.n_alphas == 3
        args = build_parser().parse_args(
            ["sweep", "seeds", "--n-seeds", "1", "--instance-chunk", "1"]
        )
        assert (args.n_seeds, args.instance_chunk) == (1, 1)

    def test_montecarlo_args(self):
        args = build_parser().parse_args(["montecarlo", "iris", "--sigma-scale", "2.0"])
        assert args.sigma_scale == 2.0
        assert args.instance_chunk == 64
        assert args.json_out is None
        assert not hasattr(args, "vectorized")

    def test_montecarlo_chunk_and_json_args(self):
        args = build_parser().parse_args(
            ["montecarlo", "iris", "--instance-chunk", "16", "--json-out", "mc.json"]
        )
        assert args.instance_chunk == 16
        assert args.json_out == "mc.json"

    @pytest.mark.parametrize("command", ["sweep", "montecarlo"])
    def test_vectorized_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "iris", "--vectorized"])
        assert exc.value.code == 2
        assert "--vectorized" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["montecarlo", "iris", "--samples", "0"], "samples"),
            (["montecarlo", "iris", "--instance-chunk", "0"], "instance-chunk"),
            (["sweep", "iris", "--instance-chunk", "-3"], "instance-chunk"),
            (["sweep", "iris", "--n-alphas", "0"], "n-alphas"),
            (["sweep", "iris", "--n-seeds", "0"], "n-seeds"),
        ],
    )
    def test_population_sizes_must_be_positive(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err


class TestFastCommands:
    def test_datasets_lists_thirteen(self, capsys):
        assert cmd_datasets() == 0
        out = capsys.readouterr().out
        assert "iris" in out and "pendigits" in out
        assert len(out.strip().splitlines()) == 14  # header + 13

    def test_circuits_table(self, capsys):
        assert cmd_circuits() == 0
        out = capsys.readouterr().out
        assert "p-ReLU" in out and "p-tanh" in out
        assert "R_s" in out

    def test_main_dispatch_datasets(self, capsys):
        assert main(["datasets"]) == 0
        assert "iris" in capsys.readouterr().out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompileParser:
    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.run is None and args.artifact is None and args.verify_only is None
        assert args.tile_rows == 8 and args.tile_cols == 4
        assert args.tile_power is None and args.tile_devices is None
        assert args.out == "compiled" and args.vectors == 8
        assert args.negation == "ideal" and args.tolerance is None

    def test_compile_source_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--run", "latest",
                                       "--artifact", "m.pnz"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--run", "latest",
                                       "--verify-only", "compiled"])

    def test_compile_full_flags(self):
        args = build_parser().parse_args([
            "compile", "--artifact", "m.pnz", "--tile-rows", "4",
            "--tile-cols", "2", "--tile-power", "5e-5", "--tile-devices", "40",
            "--negation", "circuit", "--vectors", "3", "--out", "b",
        ])
        assert args.artifact == "m.pnz"
        assert (args.tile_rows, args.tile_cols) == (4, 2)
        assert args.tile_power == 5e-5 and args.tile_devices == 40
        assert args.negation == "circuit" and args.vectors == 3 and args.out == "b"

    def test_grid_json_out_flag(self):
        args = build_parser().parse_args(["grid", "iris", "--json-out", "g.json"])
        assert args.json_out == "g.json"
        assert build_parser().parse_args(["grid", "iris"]).json_out is None


class TestWriteJsonAtomic:
    def test_writes_payload_and_leaves_no_temp_files(self, tmp_path):
        from repro.cli import _write_json_atomic

        target = tmp_path / "out.json"
        _write_json_atomic(target, {"b": 2, "a": [1, 2]})
        assert json.loads(target.read_text()) == {"a": [1, 2], "b": 2}
        assert list(tmp_path.iterdir()) == [target]  # no .tmp leftovers

    def test_overwrites_existing_file(self, tmp_path):
        from repro.cli import _write_json_atomic

        target = tmp_path / "out.json"
        target.write_text("{\"stale\": true}")
        _write_json_atomic(target, {"fresh": True})
        assert json.loads(target.read_text()) == {"fresh": True}
