"""Gram operator structure and the penalized steering solve."""

import dataclasses

import numpy as np
import pytest

import degenpop as dp
import degenpop.control as control_module
from tests.conftest import (box_mask, box_terminal_draw, cost_functional,
                            make_benchmark_coeffs, make_benchmark_grid,
                            make_even_gene_grid, make_mortality_coeffs)


def _bench_initial(grid):
    return dp.Field(np.outer(grid.a_levels * (grid.A - grid.a_levels),
                             np.sin(np.pi * grid.x_nodes)), "age_gene", grid)


class TestBoxGeometry:
    def test_box_inner_restricts_to_observation_ages(self, coarse_grid):
        g = coarse_grid
        f = np.ones((g.na + 1, g.nx + 1))
        # The box pairing masks the global trapezoid weights (so masked
        # terminal data pair exactly with full-grid integrals); the age
        # threshold node therefore keeps its full interior weight.
        assert np.isclose(dp.box_inner(f, f, g), g.A - g.delta + g.da / 2,
                          rtol=1e-14)

    def test_box_mask_shape_and_support(self, coarse_grid):
        g = coarse_grid
        mask = box_mask(g)
        assert mask.shape == (g.na + 1, g.nx + 1)
        assert np.all(mask[g.delta_index:] == 1.0)
        assert np.all(mask[:g.delta_index] == 0.0)


def _ref_gram_apply(probe, coeffs, grid):
    """The Gram operator as the full composition, kept as an oracle.

    Adjoint solve of the masked probe, window restriction, forward solve
    from zero, terminal box slice: every row of both trajectories.
    """
    mask = box_mask(grid)
    probe = np.asarray(probe, dtype=float) * mask
    back = dp.solve_adjoint(dp.AdjointProblem(coeffs, grid, dp.Field(probe, "age_gene", grid)))
    control = dp.Field(back.values * grid.omega_mask[None, None, :], "trajectory", grid)
    flow = dp.solve_forward(
        dp.ForwardProblem(coeffs, grid, dp.Field.zeros("age_gene", grid), control=control)
    )
    return flow.values[grid.nt] * mask


def _rough_probe(rng, grid):
    """Gaussian noise on every node, with -0.0 entries and one all -0.0 box row.

    Rows below the observation threshold and the a = A row are nonzero.
    """
    p = rng.standard_normal(grid.shape("age_gene"))
    p.flat[::7] = -0.0
    p[grid.delta_index + 2] = -0.0
    return p


def _check_matches_the_full_composition(g, kind):
    coeffs = make_mortality_coeffs(kind, g)
    d = g.delta_index
    rng = dp.make_rng(17)
    for p in (box_terminal_draw(rng, g).values, _rough_probe(rng, g)):
        new, ref = dp.gram_apply(p, coeffs, g), _ref_gram_apply(p, coeffs, g)
        assert new.shape == ref.shape
        assert new[d:].tobytes() == ref[d:].tobytes()
        # below the box the composition returns y(T) * 0.0, a zero that
        # carries the sign of the discarded flow; the march returns +0.0
        assert np.all(ref[:d] == 0.0)
        assert new[:d].tobytes() == bytes(new[:d].nbytes)


def _cells_id(cells):
    return "x".join(map(str, cells))


class TestGramOperator:
    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 50, 20), (50, 150, 60)],
                             ids=_cells_id)
    @pytest.mark.parametrize("kind", ["benchmark", "separable", "tabulated"])
    def test_matches_the_full_composition_bit_for_bit(self, cells, kind):
        _check_matches_the_full_composition(make_benchmark_grid(*cells), kind)

    @pytest.mark.parametrize("kind", ["benchmark", "separable", "tabulated"])
    def test_matches_the_full_composition_at_an_even_gene_count(self, kind):
        _check_matches_the_full_composition(make_even_gene_grid(), kind)

    @pytest.mark.parametrize("cells", [(50, 50, 20), (100, 100, 40)], ids=_cells_id)
    @pytest.mark.parametrize("kind", ["benchmark", "tabulated"])
    def test_symmetric_to_round_off_and_positive_on_rough_probes(self, cells, kind):
        g = make_benchmark_grid(*cells)
        coeffs = make_mortality_coeffs(kind, g)
        mask = box_mask(g)
        rng = dp.make_rng(29)
        for _ in range(3):
            p = rng.standard_normal(g.shape("age_gene")) * mask
            q = rng.standard_normal(g.shape("age_gene")) * mask
            assert np.all(p[g.na, 1:-1] != 0.0)  # the a = A row takes part
            gp, gq = dp.gram_apply(p, coeffs, g), dp.gram_apply(q, coeffs, g)
            a12, a21 = dp.box_inner(gp, q, g), dp.box_inner(p, gq, g)
            assert abs(a12 - a21) <= 1e-13 * max(abs(a12), abs(a21))
            assert dp.box_inner(gp, p, g) >= 0.0
            assert dp.box_inner(gq, q, g) >= 0.0

    def test_probe_shape_is_checked(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        for bad in (np.ones(g.nx + 1), np.ones((g.na + 1, g.nx + 2))):
            with pytest.raises(ValueError) as err:
                dp.gram_apply(bad, bench_coeffs, g)
            assert str(g.shape("age_gene")) in str(err.value)
            assert str(bad.shape) in str(err.value)

    @pytest.mark.parametrize("row_offset, value", [(0, np.nan), (-1, np.inf)],
                             ids=["nan_in_box", "inf_below_box"])
    def test_non_finite_probe_error_is_unchanged(self, bench_coeffs, coarse_grid,
                                                 row_offset, value):
        g = coarse_grid
        p = np.zeros(g.shape("age_gene"))
        p[g.delta_index + row_offset, g.nx // 2] = value
        with pytest.raises(ValueError) as ref, np.errstate(invalid="ignore"):
            _ref_gram_apply(p, bench_coeffs, g)  # inf * 0.0 below the box is nan
        with pytest.raises(ValueError) as new:
            dp.gram_apply(p, bench_coeffs, g)
        assert str(new.value) == str(ref.value) == "wT contains non-finite values"

    def test_symmetry_and_positivity(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        rng = dp.make_rng(101)
        for _ in range(3):
            p = box_terminal_draw(rng, g).values
            q = box_terminal_draw(rng, g).values
            gp = dp.gram_apply(p, bench_coeffs, g)
            gq = dp.gram_apply(q, bench_coeffs, g)
            a12 = dp.box_inner(gp, q, g)
            a21 = dp.box_inner(p, gq, g)
            assert abs(a12 - a21) <= 1e-10 * max(abs(a12), abs(a21))
            assert dp.box_inner(gp, p, g) >= 0.0

    def test_support_is_confined_to_the_box(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        p = dp.age_gene_draw(dp.make_rng(5), g).values  # deliberately unboxed
        gp = dp.gram_apply(p, bench_coeffs, g)
        assert np.all(gp[:g.delta_index] == 0.0)


def _problem(coeffs, grid, y0=None):
    return dp.ControlProblem(coeffs, grid, _bench_initial(grid) if y0 is None else y0)


@pytest.fixture(scope="module")
def solution(bench_coeffs, coarse_grid):
    return dp.solve_control(_problem(bench_coeffs, coarse_grid), 1e-4)


class TestSolveControl:
    def test_converges_quickly(self, solution, bench_coeffs, coarse_grid):
        g, tol = coarse_grid, 1e-6
        assert solution.converged
        assert solution.cg_iterations < 100
        history = solution.residual_history
        assert len(history) == solution.cg_iterations
        # relative to ||r||, so the residual before the first iteration is 1
        assert all(rel < 1.0 for rel in history)
        assert history[-1] == solution.cg_residual <= tol
        # the recursive residual is not the true one: measure the true one
        free = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, _bench_initial(g)))
        r = free.values[g.nt] * box_mask(g)
        p = solution.terminal_probe.values
        gap = dp.gram_apply(p, bench_coeffs, g) + solution.epsilon * p - r
        assert np.sqrt(dp.box_inner(gap, gap, g) / dp.box_inner(r, r, g)) <= tol

    def test_steers_the_box_population_down(self, solution, coarse_grid, bench_coeffs):
        g = coarse_grid
        y0 = _bench_initial(g)
        free = dp.solve_forward(dp.ForwardProblem(bench_coeffs, g, y0))
        free_norm = dp.box_inner(free.values[g.nt] * box_mask(g),
                                 free.values[g.nt] * box_mask(g), g)
        assert solution.y_final_norm_sq < 1e-3 * free_norm

    def test_optimality_identity(self, solution):
        # controlled terminal box values equal epsilon * probe up to CG residual
        assert solution.optimality_mismatch < 1e-3

    def test_control_supported_in_window(self, solution, coarse_grid):
        outside = solution.control.values * (1.0 - coarse_grid.omega_mask)
        assert np.all(outside == 0.0)

    def test_computed_control_beats_doing_nothing(self, solution, bench_coeffs,
                                                  coarse_grid):
        g = coarse_grid
        y0 = _bench_initial(g)
        j_zero = cost_functional(dp.Field.zeros("trajectory", g), y0, 1e-4,
                                 bench_coeffs, g)
        assert solution.cost_value < 0.5 * j_zero

    def test_cost_functional_matches_solution_bookkeeping(self, solution,
                                                          bench_coeffs, coarse_grid):
        j = cost_functional(solution.control, _bench_initial(coarse_grid),
                            solution.epsilon, bench_coeffs, coarse_grid)
        assert np.isclose(j, solution.cost_value, rtol=1e-12)

    def test_smaller_penalty_gives_smaller_terminal_norm(self, solution,
                                                         bench_coeffs, coarse_grid):
        loose = dp.solve_control(_problem(bench_coeffs, coarse_grid), 1e-2)
        assert solution.y_final_norm_sq < loose.y_final_norm_sq
        assert solution.state is not None

    def test_zero_initial_datum_needs_no_control(self, bench_coeffs, coarse_grid):
        zero = dp.Field.zeros("age_gene", coarse_grid)
        problem = _problem(bench_coeffs, coarse_grid, zero)
        sol = dp.solve_control(problem, 1e-4)
        assert sol.cg_iterations == 0
        assert sol.y_final_norm_sq == 0.0
        assert np.all(sol.control.values == 0.0)
        _check_steers_like_the_full_composition(sol, problem)

    def test_parameter_validation(self, bench_coeffs, coarse_grid):
        problem = _problem(bench_coeffs, coarse_grid)
        # NaN and inf used to fail inside CG with a misleading error
        for epsilon in (0.0, -1e-4, np.nan, np.inf):
            with pytest.raises(ValueError, match="penalty epsilon must be positive and finite"):
                dp.solve_control(problem, epsilon)
        for tol in (0.0, -1e-6, np.nan, np.inf):
            with pytest.raises(ValueError, match="CG tolerance must be positive and finite"):
                dp.solve_control(problem, 1e-4, tol=tol)
        # with no iteration allowed, CG would report a residual of 0.0
        with pytest.raises(ValueError, match="maxit"):
            dp.solve_control(problem, 1e-4, maxit=0)
        with pytest.raises(ValueError, match="age_gene"):
            _problem(bench_coeffs, coarse_grid, dp.Field.zeros("trajectory", coarse_grid))
        bad = _bench_initial(coarse_grid)
        bad.values[3, 4] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _problem(bench_coeffs, coarse_grid, bad)
        # a datum of another grid used to give scalars read from the wrong rows
        small, other = make_benchmark_grid(50, 20, 8), make_benchmark_grid(50, 40, 16)
        with pytest.raises(ValueError, match=r"age-gene shape \(21, 51\), got \(41, 51\)"):
            _problem(bench_coeffs, small, _bench_initial(other))


def _ref_steer(problem, probe, epsilon):
    """The steering after CG as the full composition, kept as an oracle.

    Full adjoint solve of the probe, minus its window restriction as the
    control, steered full forward solve from y0, terminal box slice.
    Returns the four scalars as `solve_control` forms them, the control and
    the steered trajectory.
    """
    coeffs, grid = problem.coeffs, problem.grid
    back = dp.solve_adjoint(dp.AdjointProblem(coeffs, grid, dp.Field(probe, "age_gene", grid)))
    control_values = -(back.values * grid.omega_mask[None, None, :])
    control = dp.Field(control_values, "trajectory", grid)
    steered = dp.solve_forward(dp.ForwardProblem(coeffs, grid, problem.y0, control=control))
    terminal = steered.values[grid.nt] * box_mask(grid)
    y_final_norm_sq = dp.box_inner(terminal, terminal, grid)
    cost = dp.control_norm_sq(control_values, grid)
    p_norm = np.sqrt(dp.box_inner(probe, probe, grid))
    if p_norm > 0.0:
        gap = terminal / epsilon - probe
        mismatch = np.sqrt(dp.box_inner(gap, gap, grid)) / p_norm
    else:
        mismatch = 0.0
    scalars = {
        "y_final_norm_sq": y_final_norm_sq,
        "control_cost": cost,
        "cost_value": y_final_norm_sq / (2.0 * epsilon) + 0.5 * cost,
        "optimality_mismatch": mismatch,
    }
    return scalars, control, steered


def _signed_initial(grid):
    """A signed smooth draw with -0.0 on every 11th node, the box feet included."""
    values = dp.age_gene_draw(dp.make_rng(3), grid).values.copy()
    values.flat[::11] = -0.0
    return dp.Field(values, "age_gene", grid)


def _check_steers_like_the_full_composition(solution, problem):
    want, control, state = _ref_steer(problem, solution.terminal_probe.values,
                                      solution.epsilon)
    got = {key: getattr(solution, key) for key in want}
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}
    assert solution.control.values.tobytes() == control.values.tobytes()
    assert solution.state.values.tobytes() == state.values.tobytes()


def _scalars(solution):
    return [repr(getattr(solution, key)) for key in
            ("y_final_norm_sq", "control_cost", "cost_value", "optimality_mismatch")]


class TestSteering:
    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 40, 16), (50, 150, 60),
                                       (100, 100, 40)], ids=_cells_id)
    @pytest.mark.parametrize("kind", ["benchmark", "separable", "tabulated"])
    def test_scalars_and_fields_match_the_full_composition(self, cells, kind):
        g = make_benchmark_grid(*cells)
        coeffs = make_mortality_coeffs(kind, g)
        for y0 in (_bench_initial(g), _signed_initial(g)):
            problem = _problem(coeffs, g, y0)
            solved = {eps: dp.solve_control(problem, eps) for eps in (1e-2, 1e-4, 1e-5)}
            for solution in solved.values():
                assert solution.cg_iterations >= 1
                # read before any steer: the solution steers itself alone
                _check_steers_like_the_full_composition(solution, problem)
            # stacks of one, two and four penalties, shuffled, one repeated;
            # `replace` copies a solution's CG result, not its steering
            for stack in ((1e-2,), (1e-5, 1e-2), (1e-4, 1e-2, 1e-5, 1e-4)):
                solutions = [dataclasses.replace(solved[eps]) for eps in stack]
                dp.steer(solutions)
                for solution in solutions:
                    assert solution._scalars is not None
                    assert _scalars(solution) == _scalars(solved[solution.epsilon])

    def test_steer_marches_once_and_only_for_unsteered_solutions(
        self, bench_coeffs, coarse_grid, monkeypatch
    ):
        marches = []
        march = control_module._box_march

        def counting(probes, start, coeffs, grid):
            marches.append(None if probes is None else len(probes))
            return march(probes, start, coeffs, grid)

        problem = _problem(bench_coeffs, coarse_grid)
        solutions = [dp.solve_control(problem, eps) for eps in (1e-2, 1e-4, 1e-3)]
        monkeypatch.setattr(control_module, "_box_march", counting)
        dp.steer(solutions[:2])
        assert marches == [2]
        dp.steer(solutions)  # only the third is pending
        assert marches == [2, 1]
        dp.steer(solutions)
        for solution in solutions:
            solution.summary()
        dp.steer([])
        assert marches == [2, 1]

    def test_steer_needs_solutions_of_one_problem(self, bench_coeffs, coarse_grid):
        first, second = (dp.solve_control(_problem(bench_coeffs, coarse_grid), 1e-4)
                         for _ in range(2))
        with pytest.raises(ValueError, match="one ControlProblem"):
            dp.steer([first, second])
        assert first._scalars is None and second._scalars is None

    def test_fields_are_built_on_first_access_and_kept(self, bench_coeffs, coarse_grid,
                                                       monkeypatch):
        calls = []

        def recording(name, solve):
            def wrapped(full_problem):
                calls.append(name)
                return solve(full_problem)
            return wrapped

        monkeypatch.setattr(control_module, "solve_adjoint",
                            recording("adjoint", dp.solve_adjoint))
        monkeypatch.setattr(control_module, "solve_forward",
                            recording("forward", dp.solve_forward))
        problem = _problem(bench_coeffs, coarse_grid)
        solution = dp.solve_control(problem, 1e-4)
        assert calls == []  # the free flow of the target is a box march
        assert "control" not in vars(solution) and "state" not in vars(solution)
        control = solution.control
        assert calls == ["adjoint"]
        assert solution.control is control
        state = solution.state
        assert calls == ["adjoint", "forward"]
        assert solution.state is state and solution.control is control
        assert calls == ["adjoint", "forward"]


class TestControlProblem:
    @pytest.mark.parametrize("cells", [(50, 20, 8), (50, 40, 16), (50, 150, 60),
                                       (100, 100, 40)], ids=_cells_id)
    @pytest.mark.parametrize("kind", ["benchmark", "separable", "tabulated"])
    def test_target_matches_the_full_free_solve(self, cells, kind):
        g = make_benchmark_grid(*cells)
        coeffs = make_mortality_coeffs(kind, g)
        d = g.delta_index
        for y0 in (_bench_initial(g), _signed_initial(g)):
            target = _problem(coeffs, g, y0).target
            free = dp.solve_forward(dp.ForwardProblem(coeffs, g, y0)).values[g.nt]
            assert target.shape == free.shape
            assert target[d:].tobytes() == free[d:].tobytes()
            assert target[:d].tobytes() == bytes(target[:d].nbytes)  # +0.0 only
            assert not target.flags.writeable  # shared by every penalty

    def test_no_full_solve_is_made(self, bench_coeffs, coarse_grid, monkeypatch):
        def forbidden(full_problem):
            raise AssertionError("a full solve was made")

        monkeypatch.setattr(control_module, "solve_forward", forbidden)
        monkeypatch.setattr(control_module, "solve_adjoint", forbidden)
        problem = _problem(bench_coeffs, coarse_grid)
        for eps in (1e-2, 1e-4):
            dp.solve_control(problem, eps)
        assert "target" in vars(problem) and "block" in vars(problem)

    def test_zero_initial_datum_builds_no_block(self, bench_coeffs, coarse_grid,
                                                monkeypatch):
        def forbidden(coeffs, grid):
            raise AssertionError("box_gram_block called for a zero target")

        monkeypatch.setattr(control_module, "box_gram_block", forbidden)
        zero = dp.Field.zeros("age_gene", coarse_grid)
        problem = _problem(bench_coeffs, coarse_grid, zero)
        for eps in (1e-2, 1e-4):
            assert dp.solve_control(problem, eps).cg_iterations == 0
        assert "block" not in vars(problem)


class TestNullReachReport:
    def test_quotients_normalize_by_initial_size(self, bench_coeffs, coarse_grid):
        g = coarse_grid
        y0 = _bench_initial(g)
        sol = dp.solve_control(_problem(bench_coeffs, g, y0), 1e-4)
        report = dp.verify_null_reach(sol)
        n0 = dp.l2_norm_sq(y0, g, kind="age_gene")
        assert np.isclose(report.box_decay_quotient,
                          sol.y_final_norm_sq / (1e-4 * n0), rtol=1e-12)
        assert np.isclose(report.cost_quotient, sol.control_cost / n0, rtol=1e-12)

    def test_zero_datum_yields_zero_quotients(self, bench_coeffs, coarse_grid):
        zero = dp.Field.zeros("age_gene", coarse_grid)
        sol = dp.solve_control(_problem(bench_coeffs, coarse_grid, zero), 1e-4)
        report = dp.verify_null_reach(sol)
        assert report.box_decay_quotient == 0.0 and report.cost_quotient == 0.0
