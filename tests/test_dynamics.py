"""Tests for system definitions, simulation, and dataset generation."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import kooplift as kl
from kooplift import dynamics
from kooplift.dynamics import (
    augmented_step,
    dc_motor_tanh,
    dc_motor_tanhcos,
    step,
)
from kooplift.errors import ConfigError, DimensionMismatch, NonFiniteState, OutOfBoxWarning

# rows per block of save_snapshots
CSV_BLOCK = 1000

# motor constants restated by hand so the oracle is independent of the package
RA, LA, KM, UA, B, TL, J = 12.345, 0.314, 0.253, 60.0, 0.00732, 1.47, 0.00441


class TestStep:
    def test_example_poly_origin(self, poly_system):
        # x2+ = c*x2 + d*x1^2 + e*x1*u + f*u + g*sin(u) + h at the origin
        out = step(poly_system, [0.0, 0.0], [0.0])
        np.testing.assert_allclose(out, [0.0, 0.05], atol=0)

    def test_example_poly_formula(self, poly_system):
        a, b, c, d, e, f, g, h = 0.5, 1.0, 0.8, 0.1, 0.2, 0.3, 0.4, 0.05
        rng = np.random.default_rng(0)
        for _ in range(20):
            x1, x2 = rng.uniform(-1, 1, 2)
            (u,) = rng.uniform(-2, 2, 1)
            want = [a * x1 + b * u,
                    c * x2 + d * x1**2 + e * x1 * u + f * u + g * np.sin(u) + h]
            np.testing.assert_allclose(step(poly_system, [x1, x2], [u]), want,
                                       rtol=1e-14, atol=1e-14)

    def test_constant_input_is_autonomous_map(self, poly_system):
        u_star = np.array([0.7])
        x = np.array([0.2, -0.4])
        first = step(poly_system, x, u_star)
        again = step(poly_system, x, u_star)
        np.testing.assert_array_equal(first, again)

    def test_dc_motor_fine_integration_oracle(self):
        """One coarse RK4 step matches a 100x finer integration of the ODE."""

        def make_rhs(f):
            def rhs(x, u):
                fu = f(u[0])
                return np.array([
                    (-RA * x[0] - KM * x[1] * fu + UA) / LA,
                    (-B * x[1] + KM * x[0] * fu - TL) / J,
                ])
            return rhs

        def rk4(rhs, x, u, h):
            k1 = rhs(x, u)
            k2 = rhs(x + 0.5 * h * k1, u)
            k3 = rhs(x + 0.5 * h * k2, u)
            k4 = rhs(x + h * k3, u)
            return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

        cases = [
            (dc_motor_tanh(0.005), lambda u: 2 * np.tanh(u)),
            (dc_motor_tanhcos(0.005), lambda u: 2 * np.tanh(u * np.cos(u))),
        ]
        rng = np.random.default_rng(5)
        for motor, f in cases:
            rhs = make_rhs(f)
            for _ in range(10):
                x = np.array([rng.uniform(-5, 15), rng.uniform(-250, 125)])
                u = rng.uniform(-4, 4, 1)
                ref = x.copy()
                for _ in range(100):
                    ref = rk4(rhs, ref, u, 0.005 / 100)
                got = step(motor, x, u)
                rel = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
                assert rel <= 1e-4, f"coarse step off by {rel:.2e}"

    def test_non_finite_output_names_coordinate(self):
        bad = kl.ControlSystem(
            state_dim=2, input_dim=1,
            step_map=lambda x, u: np.vstack([x[0], np.full_like(x[1], np.inf)]),
            state_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
            input_box=np.array([[-1.0], [1.0]]),
            name="bad",
        )
        with pytest.raises(NonFiniteState, match="x2"):
            step(bad, [0.0, 0.0], [0.0])

    def test_out_of_box_warns_but_returns(self, poly_system):
        with pytest.warns(OutOfBoxWarning):
            out = step(poly_system, [100.0, 0.0], [0.0])
        assert np.all(np.isfinite(out))


class TestAugmentedStep:
    def test_input_component_unchanged(self, poly_system):
        x_next, u_next = augmented_step(poly_system, [0.4, 0.8], [0.9])
        np.testing.assert_array_equal(u_next, [0.9])
        np.testing.assert_array_equal(x_next, step(poly_system, [0.4, 0.8], [0.9]))

    def test_iteration_reproduces_constant_input_trajectory(self, poly_system):
        u_star = np.array([0.25])
        x = np.array([0.5, -0.5])
        traj = kl.simulate(poly_system, x, [u_star] * 10)
        z = (x, u_star)
        for k in range(10):
            z = augmented_step(poly_system, z[0], z[1])
            np.testing.assert_array_equal(z[0], traj.states[:, k + 1])
            np.testing.assert_array_equal(z[1], u_star)


class TestSimulate:
    def test_two_step_hand_computation(self, poly_system):
        inputs = [np.array([0.1]), np.array([-0.2])]
        traj = kl.simulate(poly_system, [1.0, 1.0], inputs)
        x1 = step(poly_system, [1.0, 1.0], inputs[0])
        x2 = step(poly_system, x1, inputs[1])
        np.testing.assert_array_equal(traj.states[:, 1], x1)
        np.testing.assert_array_equal(traj.states[:, 2], x2)

    def test_single_input_two_states(self, poly_system):
        traj = kl.simulate(poly_system, [0.0, 0.0], [np.array([0.3])])
        assert traj.states.shape == (2, 2)
        assert traj.inputs.shape == (1, 1)

    def test_divergence_reports_step_index(self):
        def explode(x, u):
            with np.errstate(over="ignore"):
                return np.array([x[0] * x[0] + 2.0])

        sys_div = kl.ControlSystem(
            state_dim=1, input_dim=1,
            step_map=explode,
            state_box=np.array([[-1.0], [1.0]]),
            input_box=np.array([[-1.0], [1.0]]),
            name="explode",
        )
        with pytest.raises(NonFiniteState, match="step"):
            kl.simulate(sys_div, [1.5], [np.array([0.0])] * 40)

    def test_out_of_box_excursions_warn_once(self, poly_system):
        with pytest.warns(OutOfBoxWarning, match="outside the sampling box"):
            traj = kl.simulate(poly_system, [5.0, 0.0], [np.array([0.0])] * 3)
        assert traj.out_of_box_count > 0


def _scalar_boxes():
    return dict(state_box=np.array([[-10.0], [10.0]]),
                input_box=np.array([[-10.0], [10.0]]))


class TestDiscretizeRk4:
    def test_linear_ode_matches_exponential(self):
        sys_lin = kl.discretize_rk4(lambda x, u: -x, dt=0.005,
                                    state_dim=1, input_dim=1, **_scalar_boxes())
        out = step(sys_lin, [1.0], [0.0])
        assert abs(out[0] - np.exp(-0.005)) <= 1e-10 * np.exp(-0.005)

    def test_empirical_order_four(self):
        """Global error over a fixed interval shrinks as O(dt^4)."""
        rhs = lambda x, u: np.sin(x) + 0.5
        horizon = 0.8

        def integrate(h):
            sys_h = kl.discretize_rk4(rhs, dt=h, state_dim=1, input_dim=1,
                                      **_scalar_boxes())
            x = np.array([0.3])
            for _ in range(int(round(horizon / h))):
                x = step(sys_h, x, [0.0])
            return x[0]

        ref = integrate(horizon / 51200)
        errs = [abs(integrate(h) - ref) for h in (0.2, 0.1, 0.05)]
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        for order in (order1, order2):
            assert 3.8 <= order <= 4.2, f"observed order {order:.2f}"

    def test_zero_rhs_identity(self):
        sys_id = kl.discretize_rk4(lambda x, u: np.zeros_like(x), dt=0.1,
                                   state_dim=2, input_dim=1,
                                   state_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
                                   input_box=np.array([[-1.0], [1.0]]))
        np.testing.assert_array_equal(step(sys_id, [1.0, -2.0], [0.5]),
                                      [1.0, -2.0])


class TestRunExperiments:
    def test_single_pair_replays(self, poly_system):
        ss = kl.run_experiments(poly_system,
                                kl.ExperimentPlan(1, 1, rng_seed=0))
        assert ss.n_snapshots == 1
        np.testing.assert_array_equal(
            ss.Xplus[:, 0], step(poly_system, ss.X[:, 0], ss.U[:, 0]))

    def test_seed_determinism(self, poly_system):
        plan = kl.ExperimentPlan(20, 5, rng_seed=123)
        a = kl.run_experiments(poly_system, plan)
        b = kl.run_experiments(poly_system, plan)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.Xplus, b.Xplus)

    def test_full_replay_on_batch(self, poly_system, poly_snapshots):
        ss = poly_snapshots
        assert ss.n_snapshots == 2000
        for j in range(0, ss.n_snapshots, 97):
            np.testing.assert_array_equal(
                ss.Xplus[:, j], step(poly_system, ss.X[:, j], ss.U[:, j]))

    def test_rejection_counts_diverged_experiments(self):
        sometimes = kl.ControlSystem(
            state_dim=1, input_dim=1,
            step_map=lambda x, u: np.where(x > 0.0, np.inf, x * 0.5),
            state_box=np.array([[-1.0], [1.0]]),
            input_box=np.array([[-1.0], [1.0]]),
            name="sometimes",
        )
        ss = kl.run_experiments(sometimes, kl.ExperimentPlan(50, 2, rng_seed=4))
        assert ss.rejected > 0
        assert ss.n_snapshots == 2 * (50 - ss.rejected)
        assert np.all(np.isfinite(ss.Xplus))

    @pytest.mark.parametrize("mode, hold", [("constant", 1), ("piecewise", 2)])
    def test_matches_per_experiment_simulate_reference(self, mode, hold):
        """Lockstep stepping keeps the per-experiment loop's columns, order and counts."""
        plan = kl.ExperimentPlan(60, 12, rng_seed=8, input_mode=mode,
                                 hold_steps=hold)
        want = _per_experiment_reference(_flare_system(), plan)
        with pytest.warns(OutOfBoxWarning):
            got = kl.run_experiments(_flare_system(), plan)
        assert 1 < len(set(want["diverged_at"])), "experiments should diverge at different steps"
        assert got.rejected == want["rejected"] == len(want["diverged_at"])
        assert got.meta["out_of_box"] == want["out_of_box"] > 0
        np.testing.assert_array_equal(got.X, want["X"])
        np.testing.assert_array_equal(got.Xplus, want["Xplus"])
        np.testing.assert_array_equal(got.U, want["U"])

    def test_wrong_step_shape_names_expected_shape(self):
        flat = kl.ControlSystem(
            state_dim=2, input_dim=1,
            step_map=lambda x, u: x[0],
            state_box=np.array([[-1.0, -1.0], [1.0, 1.0]]),
            input_box=np.array([[-1.0], [1.0]]),
            name="flat",
        )
        with pytest.raises(DimensionMismatch, match=r"expected \(2, 1\)"):
            step(flat, [0.0, 0.0], [0.0])
        with pytest.raises(DimensionMismatch, match=r"expected \(2, 5\)"):
            kl.run_experiments(flat, kl.ExperimentPlan(5, 3, rng_seed=0))

    def test_piecewise_mode_redraws_inputs(self, poly_system):
        plan = kl.ExperimentPlan(1, 6, rng_seed=9, input_mode="piecewise",
                                 hold_steps=2)
        ss = kl.run_experiments(poly_system, plan)
        u = ss.U[0]
        assert u[0] == u[1] and u[2] == u[3] and u[4] == u[5]
        assert u[0] != u[2]


def _flare_system():
    """Batched map whose experiments overflow at different steps.

    ``x1`` contracts towards ``10 u`` until it passes 0.5; from then on it
    is multiplied by 1e150 each step and overflows a few steps later.
    Experiments with negative inputs stay finite and leave the state box.
    """

    def flare(x, u):
        with np.errstate(over="ignore", invalid="ignore"):
            x1 = np.where(x[0] > 0.5, x[0] * 1e150, 0.9 * x[0] + u[0])
            return np.vstack([x1, 0.5 * x[1] + x[0]])

    return kl.ControlSystem(
        state_dim=2, input_dim=1, step_map=flare,
        state_box=np.array([[-0.5, -1.0], [0.5, 1.0]]),
        input_box=np.array([[-1.0], [1.0]]),
        name="flare",
    )


def _per_experiment_reference(system, plan):
    """The per-experiment loop: draw, simulate, drop on divergence."""
    rng = np.random.default_rng(plan.rng_seed)
    lo_x, hi_x = system.state_box
    lo_u, hi_u = system.input_box
    steps = plan.steps_per_experiment
    hold = plan.hold_steps if plan.input_mode == "piecewise" else steps
    xs, xps, us, diverged_at = [], [], [], []
    outside = 0
    for _ in range(plan.num_experiments):
        x0 = rng.uniform(lo_x, hi_x)
        draws = rng.uniform(lo_u, hi_u, size=(math.ceil(steps / hold), system.input_dim))
        inputs = np.repeat(draws, hold, axis=0)[:steps].T
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OutOfBoxWarning)
                traj = kl.simulate(system, x0, inputs)
        except NonFiniteState as err:
            diverged_at.append(int(re.search(r"at step (\d+)", str(err)).group(1)))
            continue
        outside += traj.out_of_box_count
        xs.append(traj.states[:, :-1])
        xps.append(traj.states[:, 1:])
        us.append(traj.inputs)
    return {"X": np.hstack(xs), "Xplus": np.hstack(xps), "U": np.hstack(us),
            "rejected": len(diverged_at), "diverged_at": diverged_at,
            "out_of_box": outside}


class TestAugmentedData:
    def test_shapes_and_shared_input_rows(self, poly_snapshots):
        aug = kl.to_augmented(poly_snapshots)
        n, m = 2, 1
        assert aug.Z.shape == (n + m, poly_snapshots.n_snapshots)
        np.testing.assert_array_equal(aug.Z[n:], poly_snapshots.U)
        np.testing.assert_array_equal(aug.Zplus[n:], poly_snapshots.U)

    def test_split_round_trip(self, poly_snapshots):
        aug = kl.to_augmented(poly_snapshots)
        X, U, Xplus = aug.split()
        np.testing.assert_array_equal(X, poly_snapshots.X)
        np.testing.assert_array_equal(U, poly_snapshots.U)
        np.testing.assert_array_equal(Xplus, poly_snapshots.Xplus)

    def test_column_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            kl.to_augmented(kl.SnapshotSet(
                X=np.zeros((2, 3)), Xplus=np.zeros((2, 3)),
                U=np.zeros((1, 4))))

    def test_uplus_property(self, poly_snapshots):
        np.testing.assert_array_equal(poly_snapshots.Uplus, poly_snapshots.U)


class TestSnapshotCsv:
    def test_round_trip_exact(self, poly_snapshots, tmp_path):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(poly_snapshots, path)
        loaded = kl.load_snapshots(path)
        np.testing.assert_array_equal(loaded.X, poly_snapshots.X)
        np.testing.assert_array_equal(loaded.U, poly_snapshots.U)
        np.testing.assert_array_equal(loaded.Xplus, poly_snapshots.Xplus)

    def test_manifest_written(self, poly_snapshots, tmp_path):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(poly_snapshots, path)
        manifest = json.loads((tmp_path / "snaps.manifest.json").read_text())
        assert manifest["n"] == 2 and manifest["m"] == 1
        assert manifest["N"] == poly_snapshots.n_snapshots

    def test_malformed_row_names_line(self, poly_snapshots, tmp_path):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(poly_snapshots, path)
        lines = path.read_text().split("\n")
        lines[3] = lines[3].rsplit(",", 1)[0]
        path.write_text("\n".join(lines))
        with pytest.raises(ConfigError, match="line 4"):
            kl.load_snapshots(path)

    def test_comment_lines_skipped(self, poly_snapshots, tmp_path):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(poly_snapshots, path, comment="provenance stamp")
        loaded = kl.load_snapshots(path)
        assert loaded.n_snapshots == poly_snapshots.n_snapshots

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            kl.load_snapshots(path)

    def test_bytes_equal_per_value_repr_formatter(self, tmp_path):
        # Values with every repr shape: long mantissas, exponents, signed
        # zero, integers, subnormals, and the extremes of the float range.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2, 40)) * 10.0 ** rng.integers(-300, 300, size=(2, 40))
        X[:, :6] = [[0.0, -0.0, 1.0, 5e-324, 1.7976931348623157e308, -2.5e-310],
                    [3.0, 1e16, 1e-5, 0.1, -123456789.0, 2.0**-1074]]
        U = rng.uniform(-1, 1, size=(1, 40))
        Xplus = rng.normal(size=(2, 40))
        ss = kl.SnapshotSet(X=X, Xplus=Xplus, U=U)
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(ss, path, comment="stamp")
        rows = np.vstack([X, U, Xplus]).T
        want = ["# stamp", "x1,x2,u1,x1p,x2p"]
        want += [",".join(repr(float(v)) for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        loaded = kl.load_snapshots(path)
        for got, ref in ((loaded.X, X), (loaded.U, U), (loaded.Xplus, Xplus)):
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("N", [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 7])
    @pytest.mark.parametrize("mode", ["constant", "piecewise"])
    def test_bytes_equal_per_value_repr_formatter_on_experiments(self, tmp_path, mode, N):
        # Experiment data repeat values (X+ of one step is X of the next, a
        # held input repeats); the special values all share the first block.
        plan = kl.ExperimentPlan(num_experiments=250, steps_per_experiment=9,
                                 rng_seed=4, input_mode=mode, hold_steps=3)
        ss = kl.run_experiments(kl.example_poly(), plan)
        X, U, Xplus = (A[:, :N].copy() for A in (ss.X, ss.U, ss.Xplus))
        X[0, 500:508] = [0.0, -0.0, np.nan, -np.nan, 5e-324, -2.5e-310, 0.0, -0.0]
        Xplus[1, 500:504] = [-np.nan, np.nan, -5e-324, 2.0**-1074]
        U[0, 501:503] = -0.0
        ss = kl.SnapshotSet(X=X, Xplus=Xplus, U=U)
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(ss, path)
        rows = [[repr(float(v)) for v in row] for row in np.vstack([X, U, Xplus]).T]
        want = "x1,x2,u1,x1p,x2p\n" + "".join(",".join(r) + "\n" for r in rows)
        assert path.read_bytes() == want.encode()
        loaded = kl.load_snapshots(path)
        got = np.vstack([loaded.X, loaded.U, loaded.Xplus]).T
        ref = np.array([[float(v) for v in r] for r in rows])
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        # The rows are formatted block by block: apart from the (N, 2n + m)
        # row matrix a writer may build, nothing it holds grows with N.
        # The allowance covers text lengths differing between the data.
        rng = np.random.default_rng(8)
        peaks = {}
        for N in (20_000, 200_000):
            ss = kl.SnapshotSet(X=rng.normal(size=(2, N)), Xplus=rng.normal(size=(2, N)),
                                U=rng.normal(size=(1, N)))
            tracemalloc.start()
            try:
                kl.save_snapshots(ss, tmp_path / "snaps.csv")
                peaks[N] = tracemalloc.get_traced_memory()[1] - 5 * 8 * N
            finally:
                tracemalloc.stop()
        assert peaks[200_000] <= peaks[20_000] + 64 * 1024

    @pytest.mark.parametrize("text, rows", [
        ("# c\r\nx1,u1,x1p\r\n1.5,-0.0,3.0\r\n2.5,nan,-inf\r\n",
         [["1.5", "-0.0", "3.0"], ["2.5", "nan", "-inf"]]),
        ("\n  \nx1,u1,x1p\n\n1.0,2.0,3.0\n   \n\t\n4.0,5.0,6.0\n \n",
         [["1.0", "2.0", "3.0"], ["4.0", "5.0", "6.0"]]),
        ("x1,u1,x1p\n1,2,3\n# mid\n  # indented\n4,5,6",
         [["1", "2", "3"], ["4", "5", "6"]]),
        ("x1,u1,x1p\nnan,-inf,Infinity\n-nan,+inf,-Infinity\nNaN,INF,-0.0\n",
         [["nan", "-inf", "Infinity"], ["-nan", "+inf", "-Infinity"],
          ["NaN", "INF", "-0.0"]]),
        ("x1,u1,x1p\n 1.0 , -2.0,3e-320 \n", [["1.0", "-2.0", "3e-320"]]),
        ("# c\nx1,u1,x1p\n", []),
        ("x1,u1,x1p\n\n  \n# z\n", []),
    ], ids=["crlf", "blank_lines", "comment_lines", "specials", "spaces",
            "header_only", "header_only_blank_lines"])
    def test_reader_contract(self, tmp_path, text, rows):
        path = tmp_path / "snaps.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = kl.load_snapshots(path)
        got = np.vstack([loaded.X, loaded.U, loaded.Xplus]).T
        ref = np.array([[float(v) for v in r] for r in rows]).reshape(len(rows), 3)
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("text, want", [
        ("x1,u1,x1p\n1,2,3\n# mid\n\n  # indented\n4,5,6\n7,8\n",
         "line 7 (expected 3 fields)"),
        ("x1,u1,x1p\n1,2,3\n  \n4,5,abc\n", "line 4 (non-numeric field)"),
        ("x1,u1,x1p\n1,2,3\n4,5,5#x\n", "line 3 (non-numeric field)"),
        ("x1,u1,x1p\n1,2,3\n4,5,6,7\n", "line 3 (expected 3 fields)"),
        ("x1,u1,x1p\n1,2,3,4\n5,6,7,8\n", "line 2 (expected 3 fields)"),
        ("x1,u1,x1p\n1,,3\n", "line 2 (non-numeric field)"),
        # float() takes digit-group underscores; numpy's reader does not.
        ("x1,u1,x1p\n1,2,3\n\n1_0,2,3\n", "line 4 (non-numeric field)"),
    ], ids=["comment_lines", "blank_line", "hash_in_row", "long_row", "every_row_long",
            "empty_field", "underscore"])
    def test_reader_rejects_naming_the_line(self, tmp_path, text, want):
        path = tmp_path / "snaps.csv"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            kl.load_snapshots(path)
        assert str(exc.value) == f"{path}: malformed CSV row at {want}"

    @pytest.mark.parametrize("case", ["short", "non_numeric", "comment_before"])
    def test_malformed_row_error_texts(self, poly_snapshots, tmp_path, case):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(poly_snapshots, path)
        lines = path.read_text().split("\n")
        # lines[0] is the header: lines[5] is the fifth snapshot, line 6.
        lines[9] = "1.0,2.0"  # a later bad row must not be the one named
        if case == "short":
            lines[5] = lines[5].rsplit(",", 1)[0]
            want = "malformed CSV row at line 6 (expected 5 fields)"
        elif case == "non_numeric":
            lines[5] = lines[5].replace(",", ",abc,", 1).rsplit(",", 1)[0]
            want = "malformed CSV row at line 6 (non-numeric field)"
        else:
            lines.insert(3, "# a comment line")
            lines[6] = lines[6].rsplit(",", 1)[0] + ",1.0.0"
            want = "malformed CSV row at line 7 (non-numeric field)"
        path.write_text("\n".join(lines))
        with pytest.raises(ConfigError) as exc:
            kl.load_snapshots(path)
        assert str(exc.value) == f"{path}: {want}"


def _special_values_snapshots(mode, N):
    """Experiment data with signed zeros, subnormals and signed NaNs in the first block."""
    plan = kl.ExperimentPlan(num_experiments=250, steps_per_experiment=9,
                             rng_seed=4, input_mode=mode, hold_steps=3)
    ss = kl.run_experiments(kl.example_poly(), plan)
    X, U, Xplus = (A[:, :N].copy() for A in (ss.X, ss.U, ss.Xplus))
    X[0, 500:508] = [0.0, -0.0, np.nan, -np.nan, 5e-324, -2.5e-310, 0.0, -0.0]
    Xplus[1, 500:504] = [-np.nan, np.nan, -5e-324, 2.0**-1074]
    U[0, 501:503] = -0.0
    return kl.SnapshotSet(X=X, Xplus=Xplus, U=U)


def _rows_bits(ss):
    return np.vstack([ss.X, ss.U, ss.Xplus]).T.view(np.int64)


@pytest.fixture
def parses(monkeypatch):
    """Count the loads that parse the CSV rather than take the binary copy."""
    calls = []
    read_rows = dynamics._read_rows

    def counted(*args):
        calls.append(args[0])
        return read_rows(*args)

    monkeypatch.setattr(dynamics, "_read_rows", counted)
    return calls


class TestSnapshotBinaryCopy:
    @pytest.fixture
    def saved(self, tmp_path):
        ss = _special_values_snapshots("piecewise", 2 * CSV_BLOCK + 7)
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(ss, path, comment="stamp")
        return ss, path

    @staticmethod
    def _parsed(path):
        """The rows as the parse gives them, from a copy of the CSV with no binary copy."""
        lone = path.with_name("lone.csv")
        lone.write_bytes(path.read_bytes())
        return kl.load_snapshots(lone)

    @staticmethod
    def _load_quietly(path, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return kl.load_snapshots(path, **kwargs)

    @pytest.mark.parametrize("N", [CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 7])
    @pytest.mark.parametrize("mode", ["constant", "piecewise"])
    def test_copy_and_parse_give_the_same_bits(self, tmp_path, parses, mode, N):
        path = tmp_path / "snaps.csv"
        kl.save_snapshots(_special_values_snapshots(mode, N), path)
        copied = kl.load_snapshots(path)
        assert parses == []
        parsed = self._parsed(path)
        assert len(parses) == 1
        for got, ref in ((copied.X, parsed.X), (copied.U, parsed.U),
                         (copied.Xplus, parsed.Xplus)):
            assert got.shape == ref.shape and got.strides == ref.strides
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_manifest_holds_the_digests_of_both_files(self, saved):
        ss, path = saved
        manifest = json.loads(kl.dynamics.manifest_path_for(path).read_text())
        npy = path.with_name("snaps.npy")
        assert manifest["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert manifest["rows_sha256"] == hashlib.sha256(npy.read_bytes()).hexdigest()
        rows = np.load(npy)
        assert rows.shape == (manifest["N"], 5) and rows.dtype == np.float64
        np.testing.assert_array_equal(rows.view(np.int64), _rows_bits(self._parsed(path)))

    def test_edited_csv_byte_is_parsed(self, saved, parses):
        ss, path = saved
        text = path.read_bytes()
        last_digit = b"1" if text[-2:-1] != b"1" else b"2"
        path.write_bytes(text[:-2] + last_digit + text[-1:])
        loaded = self._load_quietly(path)
        assert parses == [path]
        np.testing.assert_array_equal(_rows_bits(loaded), _rows_bits(self._parsed(path)))
        assert not np.array_equal(_rows_bits(loaded), _rows_bits(ss))

    @pytest.mark.parametrize("damage", ["edited", "truncated", "missing"])
    def test_damaged_copy_is_not_used(self, saved, parses, damage):
        ss, path = saved
        npy = path.with_name("snaps.npy")
        data = npy.read_bytes()
        if damage == "edited":
            npy.write_bytes(data[:-3] + bytes([data[-3] ^ 1]) + data[-2:])
        elif damage == "truncated":
            npy.write_bytes(data[:-8])
        else:
            npy.unlink()
        loaded = self._load_quietly(path)
        assert parses == [path]
        np.testing.assert_array_equal(_rows_bits(loaded), _rows_bits(self._parsed(path)))

    @pytest.mark.parametrize("keys", [("csv_sha256", "rows_sha256"), ("csv_sha256",),
                                      ("rows_sha256",)])
    def test_manifest_of_an_earlier_version_is_parsed(self, saved, parses, keys):
        ss, path = saved
        mpath = kl.dynamics.manifest_path_for(path)
        manifest = json.loads(mpath.read_text())
        for key in keys:
            del manifest[key]
        mpath.write_text(json.dumps(manifest))
        loaded = self._load_quietly(path)
        assert parses == [path]
        np.testing.assert_array_equal(_rows_bits(loaded), _rows_bits(self._parsed(path)))

    def test_copy_of_another_row_count_is_not_used(self, saved, parses):
        ss, path = saved
        mpath = kl.dynamics.manifest_path_for(path)
        manifest = json.loads(mpath.read_text())
        manifest["N"] -= 1
        mpath.write_text(json.dumps(manifest))
        assert self._load_quietly(path).n_snapshots == ss.n_snapshots
        assert parses == [path]

    def test_callers_digest_is_the_one_checked(self, saved, parses):
        ss, path = saved
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self._load_quietly(path, csv_sha256=digest)
        assert parses == []
        loaded = self._load_quietly(path, csv_sha256="0" * 64)
        assert parses == [path]
        np.testing.assert_array_equal(_rows_bits(loaded), _rows_bits(self._parsed(path)))

    def test_csv_named_like_its_copy_rejected(self, poly_snapshots, tmp_path):
        with pytest.raises(ConfigError, match="binary copy"):
            kl.save_snapshots(poly_snapshots, tmp_path / "snaps.npy")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_manifest(self, poly_snapshots, tmp_path):
        path = tmp_path / "snaps.csv"
        path.with_name("snaps.npy").mkdir()
        with pytest.raises(OSError):
            kl.save_snapshots(poly_snapshots, path)
        assert not kl.dynamics.manifest_path_for(path).exists()


class TestBuiltins:
    def test_get_system_unknown_lists_builtins(self):
        with pytest.raises(ConfigError, match="example_poly"):
            kl.get_system("nope")

    def test_motor_variants_differ_only_in_input_channel(self):
        a = dc_motor_tanh(0.005)
        b = dc_motor_tanhcos(0.005)
        x = np.array([1.0, 10.0])
        ua = np.array([2.0])
        assert not np.allclose(step(a, x, ua), step(b, x, ua))
        u0 = np.array([0.0])
        np.testing.assert_allclose(step(a, x, u0), step(b, x, u0), rtol=1e-14)

    def test_motor_boxes_match_operating_range(self):
        motor = dc_motor_tanh(0.005)
        np.testing.assert_array_equal(motor.state_box,
                                      [[-5.0, -250.0], [15.0, 125.0]])
        np.testing.assert_array_equal(motor.input_box, [[-4.0], [4.0]])
