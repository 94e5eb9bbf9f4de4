"""Tests for Sobol sampling, power datasets, and the MLP surrogates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.pdk.params import ActivationKind, design_space
from repro.power import sobol as sobol_module
from repro.power.sobol import sobol_sequence, sobol_sample_space
from repro.power.dataset import generate_power_dataset, generate_negation_dataset, PowerDataset
from repro.power.surrogate import fit_surrogate, load_surrogate, Normalization
from repro.power.crossbar_power import crossbar_power_matrix, crossbar_total_power


class TestSobol:
    def test_unit_cube(self):
        points = sobol_sequence(5, 100, seed=1)
        assert points.shape == (100, 5)
        assert points.min() >= 0.0 and points.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = sobol_sequence(3, 64, seed=7)
        b = sobol_sequence(3, 64, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_points(self):
        a = sobol_sequence(3, 64, seed=1)
        b = sobol_sequence(3, 64, seed=2)
        assert not np.allclose(a, b)

    def test_better_coverage_than_iid_extremes(self):
        # Low-discrepancy: 1-D projection covers [0,1] evenly.
        points = sobol_sequence(2, 256, seed=0)
        histogram, _ = np.histogram(points[:, 0], bins=16, range=(0, 1))
        assert histogram.min() >= 8  # near-perfectly balanced

    def test_sample_space_respects_bounds_and_log(self):
        space = design_space(ActivationKind.RELU)
        q = sobol_sample_space(space, 128, seed=0)
        assert (q >= space.lows - 1e-12).all() and (q <= space.highs + 1e-12).all()
        # log-scaled resistances: median far below the arithmetic midpoint
        assert np.median(q[:, 0]) < 0.2 * (space.lows[0] + space.highs[0])

    def test_validates_args(self):
        with pytest.raises(ValueError):
            sobol_sequence(0, 10)
        with pytest.raises(ValueError):
            sobol_sequence(2, 0)
        with pytest.raises(ValueError):
            sobol_sequence(sobol_module.MAX_DIMENSION + 1, 10)
        with pytest.raises(ValueError):
            sobol_sequence(2, 2**30 + 1)

    def test_design_spaces_fit_the_direction_table(self):
        assert max(design_space(kind).dimension for kind in ActivationKind) <= sobol_module.MAX_DIMENSION


class TestSobolMatchesScipy:
    """The numpy generator returns scipy's scrambled Sobol bits (scipy is the oracle)."""

    @pytest.fixture(scope="class")
    def qmc(self):
        return pytest.importorskip("scipy").stats.qmc

    def test_direction_table_is_scipys(self, qmc):
        import os
        from scipy import stats

        table = np.load(os.path.join(os.path.dirname(stats.__file__), "_sobol_direction_numbers.npz"))
        rows = len(sobol_module._POLY)
        vinit = np.zeros((rows, table["vinit"].shape[1]), dtype=np.int64)
        for d, row in enumerate(sobol_module._VINIT):
            vinit[d, : len(row)] = row
        np.testing.assert_array_equal(sobol_module._POLY, table["poly"][:rows])
        np.testing.assert_array_equal(vinit, table["vinit"][:rows])

    @pytest.mark.parametrize("dimension", range(1, 11))
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_bit_identical(self, qmc, dimension, seed):
        for n in (1, 2, 3, 64, 100, 1000, 1024, 5000, 2**14):
            m = max(1, (n - 1).bit_length())
            expected = qmc.Sobol(d=dimension, scramble=True, seed=seed).random_base2(m)[:n]
            got = sobol_sequence(dimension, n, seed=seed)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64), err_msg=f"n={n}")

    def test_every_table_dimension_is_bit_identical(self, qmc):
        d = sobol_module.MAX_DIMENSION
        expected = qmc.Sobol(d=d, scramble=True, seed=3).random_base2(12)
        np.testing.assert_array_equal(sobol_sequence(d, 2**12, seed=3).view(np.uint64), expected.view(np.uint64))


class TestPowerDataset:
    def test_shapes_and_positivity(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=32, seed=0)
        assert len(ds) == 32 * 9
        assert (ds.power >= 0).all()
        assert ds.q.shape == (len(ds), 3)

    def test_deterministic(self):
        a = generate_power_dataset(ActivationKind.RELU, n_q=16, seed=3)
        b = generate_power_dataset(ActivationKind.RELU, n_q=16, seed=3)
        np.testing.assert_array_equal(a.power, b.power)

    def test_spice_path_matches_transfer_path(self):
        v_grid = np.linspace(-0.5, 0.5, 3)
        fast = generate_power_dataset(ActivationKind.RELU, n_q=4, v_grid=v_grid, seed=1)
        slow = generate_power_dataset(ActivationKind.RELU, n_q=4, v_grid=v_grid, seed=1, use_spice=True)
        np.testing.assert_allclose(fast.power, slow.power, rtol=1e-3, atol=1e-14)

    def test_negation_dataset(self):
        ds = generate_negation_dataset(n_q=16, seed=0)
        assert len(ds) == 16 * 9
        assert (ds.power >= 0).all()

    def test_split(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=20, seed=0)
        train, test = ds.split(train_fraction=0.8, seed=0)
        assert len(train) + len(test) == len(ds)
        assert len(train) == int(round(0.8 * len(ds)))

    def test_parallel_validation(self):
        space = design_space(ActivationKind.RELU)
        with pytest.raises(ValueError):
            PowerDataset(np.zeros((3, 3)), np.zeros(2), np.zeros(3), space)


class TestNormalization:
    def test_log_then_zscore(self):
        features = np.column_stack([10.0 ** np.linspace(4, 7, 50), np.linspace(-1, 1, 50)])
        norm = Normalization.fit(features, np.array([True, False]))
        z = norm.apply_numpy(features)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_tensor_columns_match_numpy(self):
        features = np.column_stack([10.0 ** np.linspace(4, 7, 10), np.linspace(-1, 1, 10)])
        norm = Normalization.fit(features, np.array([True, False]))
        cols = [Tensor(features[:, i].reshape(-1, 1)) for i in range(2)]
        out = norm.apply_tensor_columns(cols)
        stacked = np.column_stack([c.data.reshape(-1) for c in out])
        np.testing.assert_allclose(stacked, norm.apply_numpy(features), rtol=1e-12)


class TestSurrogateFit:
    def test_fit_quality_on_relu(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=400, seed=0)
        model = fit_surrogate(ds, epochs=60, seed=0)
        assert model.report.test_r2 > 0.95
        assert model.report.test_mae_log < 0.5

    def test_predict_matches_between_apis(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=100, seed=0)
        model = fit_surrogate(ds, epochs=10, seed=0)
        q = ds.space.center()
        vs = np.linspace(-0.5, 0.5, 4)
        by_numpy = model.predict_numpy(q.reshape(1, -1), vs)
        q_tensors = [Tensor(x) for x in q]
        by_tensor = model.predict_tensor(q_tensors, Tensor(vs.reshape(-1, 1))).data.reshape(-1)
        np.testing.assert_allclose(by_numpy, by_tensor, rtol=1e-9)

    def test_predictions_positive(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=100, seed=0)
        model = fit_surrogate(ds, epochs=10, seed=0)
        q = ds.space.from_unit(np.random.default_rng(1).random((5, 3)))
        for row in q:
            assert (model.predict_numpy(row.reshape(1, -1), np.array([0.3])) > 0).all()

    def test_gradient_through_prediction(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=100, seed=0)
        model = fit_surrogate(ds, epochs=10, seed=0)
        q_tensors = [Tensor(x, requires_grad=True) for x in ds.space.center()]
        v = Tensor(np.array([[0.3]]), requires_grad=True)
        model.predict_tensor(q_tensors, v).sum().backward()
        assert all(t.grad is not None and np.isfinite(t.grad).all() for t in q_tensors)
        assert v.grad is not None

    def test_save_load_roundtrip(self, tmp_path):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=64, seed=0)
        model = fit_surrogate(ds, epochs=5, seed=0)
        path = tmp_path / "surrogate.npz"
        model.save(path)
        loaded = load_surrogate(path, ds.space)
        q = ds.space.center().reshape(1, -1)
        vs = np.array([0.1, 0.5])
        np.testing.assert_allclose(
            model.predict_numpy(q, vs), loaded.predict_numpy(q, vs), rtol=1e-12
        )
        assert loaded.report.test_r2 == pytest.approx(model.report.test_r2)

    def test_paper_depth_network(self):
        ds = generate_power_dataset(ActivationKind.RELU, n_q=64, seed=0)
        model = fit_surrogate(ds, epochs=2, seed=0, paper_depth=True)
        linear_count = sum(1 for _ in model.network.named_parameters()) // 2
        assert linear_count == 15  # the paper's 15-layer ANN


class TestCrossbarPowerModel:
    def test_matches_manual_sum(self):
        theta = Tensor(np.array([[2.0, 1.0], [3.0, 0.5]]))  # µS
        v_driven = Tensor(np.array([[1.0, 0.5]]))
        v_out = Tensor(np.array([[0.25, 0.75]]))
        matrix = crossbar_power_matrix(theta, v_driven, v_out).data
        manual_00 = (1.0 - 0.25) ** 2 * 2.0e-6
        assert matrix[0, 0] == pytest.approx(manual_00)
        total = float(crossbar_total_power(theta, v_driven, v_out).data)
        assert total == pytest.approx(matrix.sum())

    def test_batch_average(self):
        theta = Tensor(np.array([[1.0]]))
        v_driven = Tensor(np.array([[1.0], [0.0]]))
        v_out = Tensor(np.array([[0.0], [0.0]]))
        total = float(crossbar_total_power(theta, v_driven, v_out).data)
        assert total == pytest.approx(0.5 * 1e-6)

    def test_gradient_into_theta(self):
        theta = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
        v_driven = Tensor(np.array([[0.5, 0.5]]))
        v_out = Tensor(np.array([[0.2, 0.2]]))
        crossbar_total_power(theta, v_driven, v_out).backward()
        assert np.isfinite(theta.grad).all()
        # power grows with |θ|: gradient sign follows sign(θ)
        assert theta.grad[0, 0] > 0 and theta.grad[0, 1] < 0

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            crossbar_power_matrix(Tensor(np.ones(3)), Tensor(np.ones((1, 3))), Tensor(np.ones((1, 1))))
