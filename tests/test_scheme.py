import dataclasses
import gc
import inspect
import weakref

import numpy as np
import pytest

from pidenet import autodiff, cli, jumpsim, nn, problems, scheme
from pidenet.autodiff import Tape
from pidenet.jumpsim import TimeGrid

from reference import (OracleNetwork, all_rows_squared_residuals, evaluate, network_input,
                       permuted, value_and_gradient)
from test_autodiff import ACTIVATIONS, finite_diff, rel_gap


def linear_net(d, w, bias=0.0):
    """Exactly affine network: identity hidden layer behind relu (leaky relu at slope 0).

    Valid as long as every (t, x) input coordinate stays positive.
    """
    k = 1 + d
    arch = nn.MlpArchitecture(input_dim=k, hidden=(k,), activation="leaky_relu", alpha=0.0)
    w_out = np.asarray(w, dtype=np.float64).reshape(k, 1)
    return nn.MlpParams(arch, np.concatenate([np.eye(k).ravel(), np.zeros(k), w_out.ravel(),
                                              [bias]]))


def toy_batch(problem, n_steps=2, batch_size=4, seed=101, require_jumps=True):
    grid = TimeGrid(problem.total_time, n_steps)
    batch = jumpsim.simulate_forward(problem, grid, batch_size, seed)
    if require_jumps:
        assert batch.counts.sum() > 0, "seed produced no jumps; pick another"
    return batch


def jumped_values(net, problem, t, x, ids, marks):
    """Network values at the jumped states of the events ``ids``, ``marks``."""
    x_ev = x[ids]
    inp = network_input(t, x_ev + problem.jump_size(t, x_ev, marks))
    value, _ = value_and_gradient(net, inp)
    return value


BENCHMARKS = [
    problems.pure_jump_1d(),
    problems.pide_1d(),
    problems.highdim_pide(dim=3),
    problems.bsb_jumps(dim=3),
]
# the same problems with no jumps: their batches hold no jump event at all
NO_JUMPS = [
    problems.pure_jump_1d(lam=0.0),
    problems.pide_1d(lam=0.0),
    problems.highdim_pide(dim=3, lam=0.0),
    problems.bsb_jumps(dim=3, lam=0.0),
]


def problem_id(problem):
    return problem.name if problem.intensity else f"{problem.name}-no-jumps"


class TestTransfer:
    def setup_method(self):
        self.tape = Tape()
        self.y = self.tape.constant(np.full((3, 1), 1.0))
        self.zero_z = self.tape.constant(np.zeros((3, 2)))
        self.zero_i = self.tape.constant(np.zeros((3, 1)))
        self.x = np.ones((3, 2))

    def test_identity_step(self):
        out = scheme.transfer(
            0.0, self.x, self.y, self.zero_z, self.zero_i,
            np.zeros((3, 2)), lambda *a: 0.0, 0.02,
        )
        np.testing.assert_array_equal(out.value, self.y.value)

    def test_constant_driver(self):
        out = scheme.transfer(
            0.0, self.x, self.y, self.zero_z, self.zero_i,
            np.zeros((3, 2)), lambda t, x, y, z, i: np.ones((3, 1)), 0.02,
        )
        np.testing.assert_allclose(out.value, 0.98, rtol=1e-15)

    def test_all_terms(self):
        tape = self.tape
        z = tape.constant(np.tile([[1.0, 2.0]], (3, 1)))
        i_term = tape.constant(np.full((3, 1), 3.0))
        dw = np.tile([[0.1, -0.1]], (3, 1))
        out = scheme.transfer(0.0, self.x, self.y, z, i_term, dw, lambda *a: 0.0, 0.02)
        np.testing.assert_allclose(out.value, 1.0 + (0.1 - 0.2) + 0.06, rtol=1e-14)


@pytest.mark.parametrize("time", ["scalar", "column"])
@pytest.mark.parametrize("problem", BENCHMARKS, ids=problem_id)
def test_driver_on_tape_variables_gives_the_bytes_of_the_driver_on_arrays(problem, time):
    # the loss calls the driver with y, z and i on the tape: each * and
    # unary - it applies to them records a mul, by a 0-d constant for a
    # scalar, which must give the bytes of the same driver on arrays
    rng = np.random.default_rng(17)
    rows, d = 6, problem.dim
    t = 0.3 if time == "scalar" else rng.uniform(0.0, 1.0, size=(rows, 1))
    x, z = rng.normal(size=(rows, d)), rng.normal(size=(rows, d))
    y, i = rng.normal(size=(rows, 1)), rng.normal(size=(rows, 1))
    tape = Tape()
    recorded = tape.lift(problem.driver(t, x, tape.param(y), tape.param(z), tape.param(i)))
    arrays = np.asarray(problem.driver(t, x, y, z, i))
    assert recorded.shape == arrays.shape == (rows, 1)
    assert recorded.value.tobytes() == arrays.tobytes()
    assert {node.op for node in tape._nodes} <= {"param", "constant", "add", "sub", "mul"}


class TestIntegralTerm:
    def test_no_jumps_linear_network(self):
        prob = problems.pure_jump_1d()
        params = linear_net(1, [0.0, 2.0])
        x = np.array([[1.0], [2.0]])
        tape = Tape()
        net = nn.TapeMlp(tape, params)
        y, g = value_and_gradient(net, network_input(0.5, x))
        ids = np.zeros(0, dtype=int)
        out = scheme.integral_term(
            jumped_values(net, prob, 0.5, x, ids, np.zeros((0, 1))), 0.5, x, ids,
            np.zeros(2, dtype=int), y, g, prob, 0.02,
        )
        expected = -2.0 * prob.compensator(0.5, x)
        np.testing.assert_allclose(out.value, expected, rtol=1e-14)

    def test_constant_network_gives_zero(self):
        prob = problems.pure_jump_1d()
        params = linear_net(1, [0.0, 0.0], bias=5.0)
        x = np.array([[1.0], [2.0]])
        tape = Tape()
        net = nn.TapeMlp(tape, params)
        y, g = value_and_gradient(net, network_input(0.5, x))
        ids = np.array([0, 1])
        out = scheme.integral_term(
            jumped_values(net, prob, 0.5, x, ids, np.array([[0.3], [-0.2]])), 0.5, x, ids,
            np.array([1, 1]), y, g, prob, 0.02,
        )
        np.testing.assert_allclose(out.value, 0.0, atol=1e-12)

    def test_linear_network_single_jump(self):
        prob = problems.pure_jump_1d()
        w_x = 2.0
        params = linear_net(1, [0.0, w_x])
        x = np.array([[1.0]])
        dt = 0.02
        mark = np.array([[0.4]])
        tape = Tape()
        net = nn.TapeMlp(tape, params)
        y, g = value_and_gradient(net, network_input(0.5, x))
        ids = np.array([0])
        out = scheme.integral_term(
            jumped_values(net, prob, 0.5, x, ids, mark), 0.5, x, ids, np.array([1]), y, g, prob, dt
        )
        beta = 1.0 * (np.exp(0.4) - 1.0)
        expected = w_x * beta / dt - w_x * prob.compensator(0.5, x)[0, 0]
        np.testing.assert_allclose(out.value[0, 0], expected, rtol=1e-12)

    def test_taylor_exactness_for_affine_network(self):
        # with an affine value function the first-order expansion of the
        # jump increment is exact, so the tape integral must match the
        # directly computed compensated jump integral on the same marks
        prob = problems.pide_1d()
        params = linear_net(1, [0.3, 1.7], bias=0.4)
        batch = toy_batch(prob, n_steps=4, batch_size=32, seed=7)
        dt = batch.grid.dt
        w_x = 1.7
        for n in range(4):
            ids, marks = batch.events(n)
            x = batch.states[n]
            tape = Tape()
            net = nn.TapeMlp(tape, params)
            y, g = value_and_gradient(net, network_input(batch.grid.times[n], x))
            out = scheme.integral_term(
                jumped_values(net, prob, batch.grid.times[n], x, ids, marks),
                batch.grid.times[n], x, ids, batch.counts[n], y, g, prob, dt,
            )
            jump_dot = np.zeros((32, 1))
            if ids.size:
                sizes = prob.jump_size(batch.grid.times[n], x[ids], marks)
                np.add.at(jump_dot, ids, w_x * sizes)
            exact = jump_dot / dt - w_x * prob.compensator(batch.grid.times[n], x)
            np.testing.assert_allclose(out.value, exact, atol=1e-12)


class TestLoss:
    def test_everything_vanishes(self):
        # zero network, zero terminal, zero driver, one step
        prob = dataclasses.replace(
            problems.pure_jump_1d(lam=0.0),
            name="null",
            driver=lambda t, x, y, z, i: 0.0,
            terminal=lambda x: np.zeros((x.shape[0], 1)),
        )
        params = linear_net(1, [0.0, 0.0], bias=0.0)
        batch = jumpsim.simulate_forward(prob, TimeGrid(1.0, 1), 8, seed=0)
        tape = Tape()
        breakdown, _ = scheme.loss(nn.TapeMlp(tape, params), batch, prob)
        assert breakdown.total == 0.0
        assert breakdown.terminal_term == 0.0

    def test_loss_nonnegative_and_breakdown_identity(self):
        prob = problems.pide_1d()
        params = nn.init(nn.MlpArchitecture(2, (8, 8), "tanh"), seed=3)
        batch = toy_batch(prob, n_steps=5, batch_size=16, seed=41)
        tape = Tape()
        breakdown, (squares, seeds) = scheme.loss(nn.TapeMlp(tape, params), batch, prob)
        assert breakdown.total >= 0.0
        assert np.all(breakdown.interval_terms >= 0.0)
        assert breakdown.terminal_term >= 0.0
        recomputed = (breakdown.interval_terms.sum() + breakdown.terminal_term) / 6
        assert breakdown.total == pytest.approx(recomputed, rel=1e-14)
        # the seeds weigh every square as the total does: 1/6 of a mean over 16 paths
        assert seeds == [1.0 / 6 / 16] * 2
        seeded = sum((seed * square.value).sum() for square, seed in zip(squares, seeds))
        assert breakdown.total == pytest.approx(seeded, rel=1e-14)

    def test_reduction_does_not_depend_on_the_squares_shape(self):
        # training hands reduce_residuals the tape's (N*B, 1) and (B, 1)
        # columns, the held-out pass (N, B) and (B,) arrays: the same bytes
        rng = np.random.default_rng(12)
        for _ in range(40):
            n_steps, batch_size = (int(k) for k in rng.integers(1, 300, size=2))
            interval_sq = rng.exponential(size=(n_steps * batch_size, 1))
            terminal_sq = rng.exponential(size=(batch_size, 1))
            column = scheme.reduce_residuals(interval_sq, terminal_sq, n_steps)
            rows = scheme.reduce_residuals(interval_sq.reshape(n_steps, batch_size),
                                           terminal_sq[:, 0], n_steps)
            assert column.interval_terms.tobytes() == rows.interval_terms.tobytes()
            assert (column.terminal_term, column.total) == (rows.terminal_term, rows.total)

    def test_permutation_invariance(self):
        prob = problems.bsb_jumps(dim=2)
        params = nn.init(nn.MlpArchitecture(3, (6,), "tanh"), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=32, seed=77)
        perm = np.random.default_rng(0).permutation(32)
        t1, t2 = Tape(), Tape()
        l1, _ = scheme.loss(nn.TapeMlp(t1, params), batch, prob)
        l2, _ = scheme.loss(nn.TapeMlp(t2, params), permuted(batch, perm), prob)
        assert l1.total == pytest.approx(l2.total, abs=1e-12)

    def test_numpy_operand_first_in_the_driver(self):
        # a numpy operand first (c + r * y) must give the loss and gradients of r * y + c
        r = np.float64(0.05)
        prob = problems.bsb_jumps(dim=2, r=r)
        params = nn.init(nn.MlpArchitecture(3, (6,), "tanh"), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=16, seed=77)
        results = []
        # t is the loss's per-row time column, so 0.03 * np.exp(-t) is an ndarray
        for driver in (lambda t, x, y, z, i: r * y + 0.03 * np.exp(-t),
                       lambda t, x, y, z, i: 0.03 * np.exp(-t) + r * y):
            problem = dataclasses.replace(prob, driver=driver)
            tape = Tape()
            net = nn.TapeMlp(tape, params)
            breakdown, pair = scheme.loss(net, batch, problem)
            results.append([breakdown.total, *tape.backward(*pair, [net.param_var])])
        for first, second in zip(*results):
            assert np.array_equal(first, second)

    def test_tape_dies_without_the_garbage_collector(self):
        # VJP closures hold arrays, not variables, so a dropped tape is
        # freed by reference counting alone
        prob = problems.bsb_jumps(dim=2)
        params = nn.init(nn.MlpArchitecture(3, (6, 6), "leaky_relu"), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=16, seed=77)
        gc.disable()
        try:
            tape = Tape()
            net = nn.TapeMlp(tape, params)
            _, pair = scheme.loss(net, batch, prob)
            (grad,) = tape.backward(*pair, [net.param_var])
            alive = weakref.ref(tape)
            del tape, net, pair
            assert alive() is None
        finally:
            gc.enable()
        assert grad.shape == params.theta.shape

    def test_oracle_loss_vanishes_for_identity_solution(self):
        # the one-step map reproduces the forward recursion exactly when
        # the value function is linear, leaving only rounding noise
        prob = problems.pure_jump_1d()
        batch = toy_batch(prob, n_steps=8, batch_size=256, seed=5)
        tape = Tape()
        breakdown, _ = scheme.loss(OracleNetwork(tape, prob), batch, prob)
        assert breakdown.terminal_term == 0.0
        assert breakdown.total <= 1e-25

    def test_nonfinite_loss_aborts_with_interval(self):
        prob = problems.pide_1d()
        bad = dataclasses.replace(
            prob, name="bad_driver",
            driver=lambda t, x, y, z, i: np.full((x.shape[0], 1), np.nan),
        )
        params = nn.init(nn.MlpArchitecture(2, (4,), "tanh"), seed=0)
        batch = jumpsim.simulate_forward(bad, TimeGrid(1.0, 3), 4, seed=1)
        with pytest.raises(scheme.NumericalAbortError) as err:
            tape = Tape()
            scheme.loss(nn.TapeMlp(tape, params), batch, bad)
        assert err.value.interval == 0
        assert err.value.breakdown is not None

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_loss_gradient_matches_finite_differences(self, batch_size):
        prob = problems.pide_1d()
        arch = nn.MlpArchitecture(2, (5, 4), "tanh")
        params = nn.init(arch, seed=11)
        batch = toy_batch(prob, n_steps=2, batch_size=batch_size, seed=29, require_jumps=False)
        assert jumpsim.simulate_forward(prob, batch.grid, 4, 29).counts.sum() > 0

        def loss_value(p: nn.MlpParams) -> float:
            tape = Tape()
            return scheme.loss(nn.TapeMlp(tape, p), batch, prob)[0].total

        tape = Tape()
        net = nn.TapeMlp(tape, params)
        _, pair = scheme.loss(net, batch, prob)
        (grad,) = tape.backward(*pair, [net.param_var])
        fd = finite_diff(lambda theta: loss_value(nn.MlpParams(arch, theta)), params.theta)
        assert rel_gap(grad, fd) <= 1e-5

    def test_loss_gradient_with_value_coupled_driver(self):
        # the driver of the Black-Scholes-Barenblatt problem feeds y back
        # into the one-step map, exercising the variable path through f
        prob = problems.bsb_jumps(dim=2)
        arch = nn.MlpArchitecture(3, (5,), "tanh")
        params = nn.init(arch, seed=13)
        batch = toy_batch(prob, n_steps=2, batch_size=4, seed=3)

        def loss_value(p: nn.MlpParams) -> float:
            tape = Tape()
            return scheme.loss(nn.TapeMlp(tape, p), batch, prob)[0].total

        tape = Tape()
        net = nn.TapeMlp(tape, params)
        _, pair = scheme.loss(net, batch, prob)
        (grad,) = tape.backward(*pair, [net.param_var])
        fd = finite_diff(lambda theta: loss_value(nn.MlpParams(arch, theta)), params.theta)
        assert rel_gap(grad, fd) <= 1e-5


def one_step_reference(problem, params, batch, n):
    """The benchmark's explicit next-step recursion, computed in numpy.

    ``problem`` has its factory's default parameters, apart from lam.
    """
    grid = batch.grid
    t, dt = grid.times[n], grid.dt
    x = batch.states[n]
    y = evaluate(params, network_input(t, x))
    tape = Tape()
    _, g_var = value_and_gradient(nn.TapeMlp(tape, params), network_input(t, x))
    grad = g_var.value
    z = problem.diffusion(t, x) * grad
    z_dw = np.sum(z * batch.brownian[n], axis=1, keepdims=True)

    ids, marks = batch.events(n)
    jump_sum = np.zeros_like(y)
    if ids.size:
        sizes = problem.jump_size(t, x[ids], marks)
        shifted = evaluate(params, network_input(t, x[ids] + sizes))
        base = evaluate(params, network_input(t, x[ids]))
        np.add.at(jump_sum, ids, shifted - base)

    factory = getattr(problems, problem.name)
    p = {k: v.default for k, v in inspect.signature(factory).parameters.items()}
    lam = problem.intensity
    comp_dot = np.sum(grad * problem.compensator(t, x), axis=1, keepdims=True)
    if problem.name == "pure_jump_1d":
        source = 0.0
    elif problem.name == "pide_1d":
        source = p["eps"] * x[:, :1]
    elif problem.name == "highdim_pide":
        msq = p["mark_mean"] ** 2 + p["mark_std"] ** 2
        source = lam * msq + p["tau"] ** 2 + (p["eps"] / problem.dim) * np.sum(
            x * x, axis=1, keepdims=True
        )
    elif problem.name == "bsb_jumps":
        msq = p["mark_mean"] ** 2 + p["mark_std"] ** 2
        horizon = np.exp((p["r"] + p["tau"] ** 2) * (problem.total_time - t))
        source = p["r"] * y + lam * horizon * msq
    else:
        raise AssertionError(problem.name)
    return y + source * dt + z_dw + jump_sum - comp_dot * dt


@pytest.mark.parametrize("problem", BENCHMARKS, ids=lambda p: p.name)
def test_transfer_matches_benchmark_recursions(problem):
    # the stored drivers negate each benchmark's source term, so the
    # generic one-step map must reproduce the explicit recursions
    params = nn.init(nn.MlpArchitecture(1 + problem.dim, (6,), "tanh"), seed=55)
    batch = toy_batch(problem, n_steps=3, batch_size=16, seed=91)
    for n in range(3):
        t = batch.grid.times[n]
        x = batch.states[n]
        tape = Tape()
        net = nn.TapeMlp(tape, params)
        y, g = value_and_gradient(net, network_input(t, x))
        z = tape.mul(g, tape.constant(problem.diffusion(t, x)))
        ids, marks = batch.events(n)
        i_term = scheme.integral_term(
            jumped_values(net, problem, t, x, ids, marks), t, x, ids, batch.counts[n],
            y, g, problem, batch.grid.dt,
        )
        prediction = scheme.transfer(
            t, x, y, z, i_term, batch.brownian[n], problem.driver, batch.grid.dt
        )
        reference = one_step_reference(problem, params, batch, n)
        np.testing.assert_allclose(prediction.value, reference, atol=1e-12)


class TestOneNetworkPass:
    """The loss evaluates the network once, jumped states included."""

    # row-wise arithmetic, row reductions and slices: everything but the network
    NON_NETWORK = {"param", "constant", "slice", "add", "sub", "mul", "row_dot", "segment_sum"}

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_loss_tape_holds_one_network_node(self, activation, alpha, tape_variables):
        prob = problems.bsb_jumps(dim=2)
        params = nn.init(nn.MlpArchitecture(3, (6, 6), activation, alpha), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=16, seed=77)
        tape = Tape()
        scheme.loss(nn.TapeMlp(tape, params), batch, prob)
        assert len(tape_variables) == len(tape._nodes)
        network = [v for v in tape_variables if tape._nodes[v.id].op == "mlp"]
        assert len(network) == 1
        assert network[0].shape == (4 * 16 + batch.event_paths.size, 3)
        ops = {node.op for node in tape._nodes}
        assert ops - {"mlp"} <= self.NON_NETWORK, ops

    @pytest.mark.parametrize("activation, alpha", ACTIVATIONS)
    def test_backward_writes_into_no_recorded_value(self, activation, alpha, monkeypatch,
                                                    chunk_workers, tape_variables):
        # slices are views into their parent's value, so a write into any
        # recorded value, forward or backward, would change another node's
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        pool = chunk_workers(2)
        config = cli.load_config("highdim_d10")
        arch = dataclasses.replace(config.architecture, activation=activation, alpha=alpha)
        batch = jumpsim.simulate_forward(config.problem, config.grid, 8, config.seed_simulation)
        assert batch.counts.sum() > 0
        tape = Tape()
        net = nn.TapeMlp(tape, nn.init(arch, seed=4))
        _, pair = scheme.loss(net, batch, config.problem)
        # every node's value, read through the Variable that owns it
        assert [v.id for v in tape_variables] == list(range(len(tape._nodes)))
        mlp = next(v for v in tape_variables if tape._nodes[v.id].op == "mlp")
        assert mlp.shape[0] > 3 * 128  # four chunks or more
        before = [v.value.tobytes() for v in tape_variables]
        tape.backward(*pair, [net.param_var])
        assert pool.tasks > 0
        assert [v.value.tobytes() for v in tape_variables] == before
        slices = [v for v in tape_variables if tape._nodes[v.id].op == "slice"]
        assert slices
        for v in slices:
            parent = tape_variables[tape._nodes[v.id].parents[0]]
            assert np.shares_memory(v.value, parent.value)

    def test_training_tape_reads_coefficient_rows_and_the_brownian_stack(self, tape_variables):
        # highdim_d10's sigma and compensator do not depend on the state:
        # they go on the tape as (1, d) rows, and the one (rows, d)
        # constant is dW, a view of the batch's node-major stack
        config = cli.load_config("highdim_d10")
        batch = jumpsim.simulate_forward(config.problem, config.grid, 64, config.seed_simulation)
        tape = Tape()
        scheme.loss(nn.TapeMlp(tape, nn.init(config.architecture, seed=4)), batch, config.problem)
        d = config.problem.dim
        constants = [v for v in tape_variables if tape._nodes[v.id].op == "constant"]
        rows_by_d = [v for v in constants if v.shape == (config.steps * 64, d)]
        assert len(rows_by_d) == 1
        assert np.shares_memory(rows_by_d[0].value, batch.brownian)
        assert sum(v.shape == (1, d) for v in constants) == 2

    @pytest.mark.parametrize("problem", BENCHMARKS + NO_JUMPS, ids=problem_id)
    def test_interval_terms_match_benchmark_recursions(self, problem):
        # the jumped rows of the one network pass must line up with their
        # events: a slice off by a row or a jumped state at the wrong time
        # moves the interval terms far beyond rounding.  With no events the
        # same code runs over empty event arrays
        params = nn.init(nn.MlpArchitecture(1 + problem.dim, (6,), "tanh"), seed=55)
        batch = toy_batch(problem, n_steps=3, batch_size=32, seed=91,
                          require_jumps=problem.intensity > 0)
        if not problem.intensity:
            assert batch.event_paths.shape == batch.event_intervals.shape == (0,)
            assert batch.event_marks.shape == (0, problem.mark_dim)
            assert batch.event_paths.dtype == batch.event_intervals.dtype == np.int64
            assert batch.event_marks.dtype == np.float64
        breakdown, _ = scheme.loss(nn.TapeMlp(Tape(), params), batch, problem)
        expected = [
            np.mean((evaluate(params,
                              network_input(batch.grid.times[n + 1], batch.states[n + 1]))
                     - one_step_reference(problem, params, batch, n)) ** 2)
            for n in range(3)
        ]
        np.testing.assert_allclose(breakdown.interval_terms, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("problem", BENCHMARKS, ids=lambda p: p.name)
    def test_values_are_the_network_at_every_node(self, problem):
        # held-out errors read this column in place of a second pass; a
        # node-major reshape read as path-major scrambles it
        params = nn.init(nn.MlpArchitecture(1 + problem.dim, (6,), "tanh"), seed=55)
        batch = toy_batch(problem, n_steps=3, batch_size=32, seed=91)
        values = scheme.squared_residuals(nn.TapeMlp(Tape(), params), batch, problem)[2]
        expected = np.stack(
            [evaluate(params, network_input(t, batch.states[n]))[:, 0]
             for n, t in enumerate(batch.grid.times)]
        )
        assert values.shape == (4, 32)
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-15)


    def test_network_rows_are_x0_once_then_gradient_then_value_only_rows(self, monkeypatch):
        # x0 stands for every path's node 0; nodes 1..N-1 need gradients;
        # node N and the jumped states need only their values
        prob = problems.bsb_jumps(dim=2)
        params = nn.init(nn.MlpArchitecture(3, (6, 6), "tanh"), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=16, seed=77)
        calls = []
        value_and_grad = nn.TapeMlp.value_and_grad

        def recording(net, inp, grad_rows=None, repeat=1):
            calls.append((inp.copy(), grad_rows, repeat))
            return value_and_grad(net, inp, grad_rows, repeat)

        monkeypatch.setattr(nn.TapeMlp, "value_and_grad", recording)
        tape = Tape()
        scheme.loss(nn.TapeMlp(tape, params), batch, prob)
        ((inp, grad_rows, repeat),) = calls
        events = batch.event_paths.size
        assert (grad_rows, repeat) == (1 + 2 * 16, 16)
        assert inp.shape == (1 + 3 * 16 + events, 3)
        assert inp[0].tolist() == [0.0, *prob.x0]
        for n in (1, 2, 3):
            rows = inp[1 + (n - 1) * 16:1 + n * 16]
            assert np.all(rows[:, 0] == batch.grid.times[n])
            assert np.array_equal(rows[:, 1:], batch.states[n])
        assert inp[1 + 3 * 16:].shape == (events, 3) and events > 0

    def test_the_node_is_sliced_before_any_arithmetic(self, monkeypatch):
        # backward runs the VJPs in reverse order of recording, and the
        # first slice of the node that it reaches zero-fills the node's
        # (rows, 1+d) adjoint.  With the five slices right after the node,
        # that comes after every arithmetic VJP, whose adjoints are gone
        # by then.  With y_term's slice recorded after the arithmetic,
        # five highdim training steps at B=1000 reached 603.8-605.5 MiB
        # max RSS, against 567.5-569.8 MiB (5 processes each, 2-core VM)
        prob = problems.bsb_jumps(dim=2)
        params = nn.init(nn.MlpArchitecture(3, (6, 6), "tanh"), seed=9)
        batch = toy_batch(prob, n_steps=3, batch_size=16, seed=77)
        slices, slice_of = [], Tape.slice

        def recording(tape, a, rows=None, cols=None):
            out = slice_of(tape, a, rows, cols)
            slices.append((out.id, a.id, cols))
            return out

        monkeypatch.setattr(Tape, "slice", recording)
        tape = Tape()
        scheme.squared_residuals(nn.TapeMlp(tape, params), batch, prob)
        (node,) = [i for i, n in enumerate(tape._nodes) if n.op == "mlp"]
        # y_curr, y_next, y_jumped and y_term, then grad_curr
        cols = [(0, 1)] * 4 + [(1, 3)]
        assert slices == [(node + k, node, c) for k, c in enumerate(cols, start=1)]

    @pytest.mark.parametrize("preset", cli.preset_names())
    def test_loss_and_gradient_match_the_all_rows_reference(self, preset, monkeypatch):
        # the node evaluates x0 once and the value-only rows without their
        # gradients; losses agree to 1 ulp, gradients to 1e-12 of max|g|.
        # 128-row chunks: both kinds of row go in several shares
        monkeypatch.setattr(autodiff, "CHUNK_ROWS", 128)
        config = cli.load_config(preset)
        problem = config.problem
        params = nn.init(config.architecture, seed=config.seed_init)
        params.theta += np.random.default_rng(1).normal(scale=0.1, size=params.theta.size)
        batch = jumpsim.simulate_forward(problem, config.grid, 24, config.seed_simulation)
        assert batch.event_paths.size or not problem.intensity
        results = []
        seed = (1.0 / (config.grid.steps + 1)) / 24  # the loss's adjoint on every square
        for squares in (lambda net: scheme.squared_residuals(net, batch, problem)[:2],
                        lambda net: all_rows_squared_residuals(net, batch, problem)):
            tape = Tape()
            net = nn.TapeMlp(tape, params)
            interval_sq, terminal_sq = squares(net)
            breakdown = scheme.reduce_residuals(interval_sq.value, terminal_sq.value,
                                                config.grid.steps)
            results.append((breakdown.total, tape.backward([interval_sq, terminal_sq],
                                                           [seed, seed], [net.param_var])[0]))
        (loss, grad), (ref_loss, ref_grad) = results
        assert abs(loss - ref_loss) <= np.spacing(abs(ref_loss))
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

def oracle_residuals(problem, n_steps, batch_size=1000, seed=0):
    """One-step residuals of the exact solution, with no training involved.

    Returns the squared residual summed over intervals, as the loss
    computes it, and the batch-mean residual summed over intervals with
    the compensator's Taylor remainder added back.  The integral term pairs
    the gradient with the jump-size integral, a first-order Taylor
    expansion of lam * E[u(x + G) - u(x)], so even the exact solution
    leaves lam * E[u(x + G) - u(x) - grad u . G] * dt in every interval;
    the remainder is estimated from sampled marks.
    """
    batch = jumpsim.simulate_forward(
        problem, TimeGrid(problem.total_time, n_steps), batch_size, seed
    )
    tape = Tape()
    net = OracleNetwork(tape, problem)
    breakdown, _ = scheme.loss(net, batch, problem)
    dt = batch.grid.dt
    rng = np.random.default_rng(seed)
    mean_sum = 0.0
    for n in range(n_steps):
        t, x = batch.grid.times[n], batch.states[n]
        y, g = value_and_gradient(net, network_input(t, x))
        z = tape.mul(g, tape.constant(problem.diffusion(t, x)))
        ids, marks = batch.events(n)
        i_term = scheme.integral_term(
            jumped_values(net, problem, t, x, ids, marks), t, x, ids, batch.counts[n],
            y, g, problem, dt,
        )
        prediction = scheme.transfer(
            t, x, y, z, i_term, batch.brownian[n], problem.driver, dt
        )
        exact_next = problem.exact(batch.grid.times[n + 1], batch.states[n + 1])
        rows = np.repeat(x, 8, axis=0)
        sizes = problem.jump_size(
            t, rows, problem.sample_marks(rng.standard_normal(size=(rows.shape[0], problem.mark_dim)))
        )
        remainder = (
            problem.exact(t, rows + sizes)
            - problem.exact(t, rows)
            - np.sum(problem.exact_grad(t, rows) * sizes, axis=1, keepdims=True)
        )
        mean_sum += np.mean(exact_next - prediction.value)
        mean_sum += problem.intensity * remainder.mean() * dt
    return float(breakdown.interval_terms.sum()), mean_sum


class TestOracleDiscretisation:
    """The exact solution in place of the network: the loss measures the scheme alone.

    Bounds come from seeds 0-9 at B=1000 over N = 8..64: squared-residual
    orders 0.82-1.27 per doubling, and the remainder-corrected mean sum
    falling at order 0.6-2.5 from N=8 to N=64 (noisier on bsb_jumps).
    """

    STEPS = (8, 16, 32, 64)
    NONLINEAR = [problems.highdim_pide(dim=4), problems.bsb_jumps(dim=4)]

    def test_linear_solution_leaves_rounding_only(self):
        # u(t, x) = x: Ito and Taylor terms vanish, so every diffusive,
        # drift, jump and compensator term must cancel exactly
        prob = problems.pide_1d()
        for n_steps in self.STEPS:
            batch = jumpsim.simulate_forward(prob, TimeGrid(1.0, n_steps), 1000, seed=0)
            breakdown, _ = scheme.loss(OracleNetwork(Tape(), prob), batch, prob)
            assert breakdown.terminal_term == 0.0
            assert breakdown.interval_terms.max() <= 1e-28

    @pytest.mark.parametrize("problem", NONLINEAR, ids=lambda p: p.name)
    def test_squared_residual_falls_at_first_order(self, problem):
        # a wrong diffusion pairing leaves an O(sqrt(dt)) term in each
        # residual, and the summed square then stops falling
        sums = np.array([oracle_residuals(problem, n)[0] for n in self.STEPS])
        orders = np.log2(sums[:-1] / sums[1:])
        assert np.all((orders >= 0.7) & (orders <= 1.5)), orders

    @pytest.mark.parametrize("problem", NONLINEAR, ids=lambda p: p.name)
    def test_mean_residual_shrinks_faster_than_dt(self, problem):
        # a sign error in a driver, compensator or jump integral leaves an
        # O(dt) mean per interval, whose sum over [0, T] does not fall with N
        coarse = abs(oracle_residuals(problem, self.STEPS[0])[1])
        fine = abs(oracle_residuals(problem, self.STEPS[-1])[1])
        assert np.log2(coarse / fine) / 3 >= 0.4, (coarse, fine)
