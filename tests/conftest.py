"""Shared fixtures: case-study models, reference certificates, random expressions."""

from __future__ import annotations

import numpy as np
import pytest

from kbarrier import (
    Box, ExprMap, builtin_config, build_model, collect_trajectory,
    NetworkParams,
)
from kbarrier.expr import (
    Add, Const, Cos, Exp, Expr, Mul, Neg, Pow, Sin, Sub, Tape, Var, _column,
)


def pytest_report_header(config):
    """The numpy version and the SIMD targets it dispatches to on this CPU.

    The seed-0 report digests in test_cegis.py hold for one numpy build
    (2.4.6 dispatching AVX512_ICL and AVX512_SPR kernels); another build may
    round differently, which is worth knowing when a digest differs.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:     # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__}, SIMD dispatch targets: {' '.join(targets) or 'none'}"


# ---------------------------------------------------------------------------
# Case-study pipelines (built once per session)
# ---------------------------------------------------------------------------

def _pipeline(name):
    config = builtin_config(name)
    truth = config.truth_model()
    dictionary = config.dictionary_obj()
    trajectory = collect_trajectory(truth, dictionary, config.x0, config.trajectory_length)
    model = build_model(trajectory, dictionary)
    return config, truth, dictionary, trajectory, model


def identity_dictionary(n: int) -> ExprMap:
    """The dictionary x0..x{n-1}: build_model over it recovers a linear system."""
    return ExprMap(tuple(Var(i) for i in range(n)), n)


@pytest.fixture(scope="session")
def highly_nonlinear():
    return _pipeline("highly-nonlinear")


@pytest.fixture(scope="session")
def polynomial():
    return _pipeline("polynomial")


@pytest.fixture(scope="session")
def pendulum():
    return _pipeline("pendulum")


# ---------------------------------------------------------------------------
# Reference certificates bundled with the case studies
# ---------------------------------------------------------------------------

def make_reference_nonlinear() -> NetworkParams:
    return NetworkParams(
        weights=np.array([[0.54, -1.32], [0.58, -0.47], [0.72, -0.06], [0.80, -0.05]]),
        biases=np.array([1.14, 0.29, 1.40, 1.31]),
        out_weights=np.array([-0.55, -1.35, 0.65, 0.12]),
        out_bias=0.99,
        activations=("sin", "sin", "cos", "cos"),
    )


def make_reference_polynomial() -> Expr:
    """Reference certificate of the polynomial case study.

    The coefficients are two-decimal values.  Under the bundled dynamics
    they fail the k-step condition E2 at k=3: at the X_I corner (1.5, -1.0),
    B(f^3 x) - B(x) = +0.08496 in exact rational arithmetic.  Rollouts of
    2000 states from X_I over 50 steps stay out of X_U, with max B in X
    about -0.049, so the certificate is safe in practice but not a formal
    k-inductive certificate.  The paper text needed to check the
    transcription of these coefficients is not in this repository.
    """
    x1, x2 = Var(0), Var(1)
    return (Const(0.02) * x1 ** 2 + Const(0.02) * (x1 * x2) - Const(0.12) * x1
            - Const(0.04) * x2 ** 2 + Const(0.04) * x2 + Const(0.10))


@pytest.fixture(scope="session")
def reference_nonlinear_cert() -> Expr:
    return make_reference_nonlinear().to_expr()


@pytest.fixture(scope="session")
def reference_polynomial_cert() -> Expr:
    return make_reference_polynomial()


# ---------------------------------------------------------------------------
# Random expression / box generators for soundness properties
# ---------------------------------------------------------------------------

def random_expr(rng: np.random.Generator, n_vars: int, depth: int) -> Expr:
    """Random expression over the full grammar, bounded depth."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.6:
            return Var(int(rng.integers(n_vars)))
        return Const(float(rng.uniform(-2.0, 2.0)))
    op = rng.choice(["add", "sub", "mul", "neg", "pow", "sin", "cos", "exp"],
                    p=[0.2, 0.2, 0.2, 0.1, 0.1, 0.08, 0.08, 0.04])
    if op in ("add", "sub", "mul"):
        a = random_expr(rng, n_vars, depth - 1)
        b = random_expr(rng, n_vars, depth - 1)
        return {"add": Add, "sub": Sub, "mul": Mul}[op](a, b)
    a = random_expr(rng, n_vars, depth - 1)
    if op == "neg":
        return Neg(a)
    if op == "pow":
        return Pow(a, int(rng.integers(1, 4)))
    return {"sin": Sin, "cos": Cos, "exp": Exp}[op](a)


def random_box(rng: np.random.Generator, n_vars: int, span: float = 3.0) -> Box:
    bounds = []
    for _ in range(n_vars):
        lo = float(rng.uniform(-span, span))
        width = float(rng.uniform(0.0, 2.0))
        bounds.append((lo, lo + width))
    return Box.from_bounds(bounds)


def random_finite_pair(rng: np.random.Generator, n_vars: int = 2,
                       depth: int = 4) -> tuple[Expr, Box]:
    """Random (expression, box) pair whose enclosure stays finite."""
    from kbarrier import eval_interval

    while True:
        e = random_expr(rng, n_vars, depth)
        b = random_box(rng, n_vars)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                eval_interval(e, b)
        except (ValueError, OverflowError):
            continue
        return e, b


# ---------------------------------------------------------------------------
# The naive enclosures: the box rules alone
# ---------------------------------------------------------------------------

def naive_eval_boxes(tape, lo, hi) -> list[tuple[np.ndarray, np.ndarray]]:
    """The enclosures of `_RULES`' box rules alone, run through the Tape's own
    loop: what `Tape.eval_boxes` intersects with the centred form."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    m = lo.shape[0]
    roots = tape._run(lambda rules, x, y: rules[1](x, y),
                      lambda j: (lo[:, j], hi[:, j]), lambda c: (c, c))
    return [(_column(z_lo, m), _column(z_hi, m)) for z_lo, z_hi in roots]


def naive_interval(e: Expr, box: Box) -> tuple[float, float]:
    """`eval_interval` on the naive enclosure: ValueError if a bound is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        (lo, hi), = naive_eval_boxes(Tape([e]), box.lo()[None, :], box.hi()[None, :])
    lo, hi = float(lo[0]), float(hi[0])
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"enclosure bounds must be finite: [{lo}, {hi}]")
    return lo, hi
