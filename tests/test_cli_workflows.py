"""End-to-end CLI workflow tests at miniature scale."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestTrainCommand:
    def test_train_absolute_budget_runs(self, capsys, af_surrogates, neg_surrogate):
        # Tiny epoch count: exercises the full path (surrogates come from the
        # session cache), not the learning quality.
        code = main([
            "train", "iris", "--af", "p-ReLU", "--budget-mw", "1.0",
            "--epochs", "25", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert "hard budget: 1.0000 mW" in out
        assert "result:" in out
        assert code in (0, 1)  # feasibility depends on the tiny schedule

    def test_train_fraction_budget_runs(self, capsys):
        code = main([
            "train", "iris", "--af", "p-ReLU", "--budget-fraction", "0.9",
            "--epochs", "25", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert "unconstrained:" in out
        assert "90%" in out or "hard budget" in out
        assert code in (0, 1)


class TestCircuitsCommand:
    def test_transfer_rows_have_nine_columns(self, capsys):
        main(["circuits"])
        out = capsys.readouterr().out
        transfer_lines = [
            line for line in out.splitlines() if line.startswith("p-") and "+" in line
        ]
        assert len(transfer_lines) == 4
        for line in transfer_lines:
            assert line.count(".") >= 9  # nine voltage columns


class TestUnknownDataset:
    def test_train_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            main(["train", "not_a_dataset", "--epochs", "5"])


class TestStackedMatchesOracle:
    """The CLI's stacked Monte-Carlo and sweep equal their serial oracles.

    Each test runs the command in process, sharded over two pool workers,
    and checks every per-instance (per-point) number it writes against the
    oracle loop run on the very network (sweep points) the command used.
    """

    def test_montecarlo_cli_matches_oracle(self, tmp_path, monkeypatch, capsys):
        import json

        import numpy as np

        import repro.evaluation.montecarlo as montecarlo

        seen = {}
        run_monte_carlo = montecarlo.run_monte_carlo

        def spy(net, x, y, spec, **kwargs):
            seen.update(net=net, x=x, y=y, spec=spec, **kwargs)
            return run_monte_carlo(net, x, y, spec, **kwargs)

        monkeypatch.setattr(montecarlo, "run_monte_carlo", spy)
        out = tmp_path / "mc.json"
        code = main([
            "montecarlo", "iris", "--epochs", "3", "--samples", "16",
            "--instance-chunk", "4", "--jobs", "2", "--json-out", str(out),
        ])
        capsys.readouterr()
        assert code in (0, 1)
        assert (seen["n_jobs"], seen["instance_chunk"]) == (2, 4)
        payload = json.loads(out.read_text())
        assert "vectorized" not in payload
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seen["seed"]).spawn(16)]
        accuracies, powers = montecarlo.evaluate_instances(
            seen["net"], seen["x"], seen["y"], seen["spec"], rngs
        )
        assert payload["n_samples"] == 16
        assert payload["accuracies"] == accuracies.tolist()
        assert payload["powers"] == powers.tolist()
        oracle = montecarlo.MonteCarloReport(
            accuracies, powers, payload["nominal_accuracy"], payload["nominal_power"],
            payload["power_budget"], payload["accuracy_floor"],
        )
        assert payload["parametric_yield"] == oracle.parametric_yield

    def test_sweep_cli_matches_oracle(self, tmp_path, monkeypatch, capsys):
        import json

        import repro.evaluation.experiments as experiments
        from tests.serial_oracle import penalty_sweep_oracle

        seen = {}
        penalty_pareto_sweep = experiments.penalty_pareto_sweep

        def spy(**kwargs):
            seen.update(kwargs)
            return penalty_pareto_sweep(**kwargs)

        monkeypatch.setattr(experiments, "penalty_pareto_sweep", spy)
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "iris", "--epochs", "3", "--n-alphas", "2", "--n-seeds", "2",
            "--instance-chunk", "3", "--jobs", "2", "--json-out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        assert (seen["n_jobs"], seen["instance_chunk"]) == (2, 3)
        payload = json.loads(out.read_text())
        assert "vectorized" not in payload
        assert payload["n_errors"] == 0 and payload["n_runs"] == 4
        spec = seen["net_spec"]
        oracle = penalty_sweep_oracle(
            spec.build, spec.split(), n_alphas=2, n_seeds=2, settings=seen["settings"]
        )
        expected = [
            {
                "alpha": float(alpha),
                "seed": seed,
                "test_accuracy": result.test_accuracy,
                "power_w": result.power,
                "epochs_run": result.epochs_run,
            }
            for (alpha, seed), result in zip(
                [(a, s) for a in oracle.alphas for s in oracle.seeds], oracle.results
            )
        ]
        assert payload["points"] == expected
