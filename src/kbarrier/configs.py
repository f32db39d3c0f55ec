"""Built-in case-study configurations and JSON config loading.

Each case study bundles a ground-truth system (used only to record the
data trajectory), the term dictionary, the safety boxes and all training /
search settings.  The built-ins are registered under `BUILTIN_NAMES` and a
user config is the same JSON document produced by `show-config`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

from .cegis import CegisConfig
from .dynamics import ExprMap
from .expr import Box, parse_expr
from .learner import ACTIVATIONS, TrainConfig, mixed_sin_cos
from .verifier import KBCSpec, SafetySpec, VerificationTask

__all__ = ["CaseStudyConfig", "ConfigError", "BUILTIN_NAMES", "builtin_config", "load_config"]


class ConfigError(ValueError):
    """Raised when a case-study document is inconsistent."""


# fields that must be Python ints (a bool or a float such as 2.0 is rejected)
_INT_FIELDS = ("trajectory_length", "k", "epochs", "max_iterations", "cex_points", "samples",
               "max_boxes")
# fields whose entries must be strings: expression texts and activation names
_STR_TUPLE_FIELDS = ("truth_step", "dictionary", "activations")
# fields that must be an int or a float (a bool, a string or null is rejected)
_REAL_FIELDS = ("epsilon", "learning_rate", "lr_retrain", "cex_radius", "delta")
_REGION_FIELDS = ("state_space", "initial_region", "unsafe_region")
# fields that hold a list in a config document (a string or a scalar is rejected)
_LIST_FIELDS = _STR_TUPLE_FIELDS + ("x0", "eta") + _REGION_FIELDS


def _real(name: str, value) -> float:
    """`value` as a float, if it is an int or a float; else a ConfigError naming `name`."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CaseStudyConfig:
    """Every setting of a run, validated at construction.

    Command-line flags arrive through `dataclasses.replace`, so they pass the
    same checks as values read from JSON.  Defaults are those of the class
    that consumes each setting.  The state dimension `n` and the network
    `width` are not settings: they are the lengths of `truth_step` and
    `activations`.
    """

    name: str
    truth_step: tuple[str, ...]       # expression text per dimension
    dictionary: tuple[str, ...]       # expression text per term
    x0: tuple[float, ...]
    trajectory_length: int
    state_space: tuple[tuple[float, float], ...]
    initial_region: tuple[tuple[float, float], ...]
    unsafe_region: tuple[tuple[float, float], ...]
    k: int
    epsilon: float
    eta: tuple[float, float, float, float]
    activations: tuple[str, ...]
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    lr_retrain: float = CegisConfig.lr_retrain
    max_iterations: int = CegisConfig.max_iterations
    cex_points: int = CegisConfig.cex_points
    cex_radius: float = CegisConfig.cex_radius
    samples: int = CegisConfig.samples
    delta: float = VerificationTask.delta
    max_boxes: int = VerificationTask.max_boxes

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"name must be a string, got {self.name!r}")
        for name in _LIST_FIELDS:
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list, got {getattr(self, name)!r}")
        object.__setattr__(self, "truth_step", tuple(self.truth_step))
        object.__setattr__(self, "dictionary", tuple(self.dictionary))
        object.__setattr__(self, "x0", tuple(_real("x0", v) for v in self.x0))
        object.__setattr__(self, "eta", tuple(_real("eta", v) for v in self.eta))
        object.__setattr__(self, "activations", tuple(self.activations))
        for name in _REGION_FIELDS:
            for pair in getattr(self, name):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise ConfigError(f"{name}: each bound must be a [lo, hi] pair, got {pair!r}")
            bounds = tuple((_real(name, lo), _real(name, hi)) for lo, hi in getattr(self, name))
            object.__setattr__(self, name, bounds)
        self.validate()

    @property
    def n(self) -> int:
        return len(self.truth_step)

    @property
    def width(self) -> int:
        return len(self.activations)

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            _real(name, getattr(self, name))
        for name in _STR_TUPLE_FIELDS:
            if not getattr(self, name):
                raise ConfigError(f"{name} must have at least one entry")
            for entry in getattr(self, name):
                if not isinstance(entry, str):
                    raise ConfigError(f"{name} entries must be strings, got {entry!r}")
        if len(self.x0) != self.n:
            raise ConfigError(f"x0 must have {self.n} entries, one per truth_step expression")
        if not all(map(math.isfinite, self.x0)):
            raise ConfigError(f"x0 entries must be finite, got {list(self.x0)!r}")
        for name in _REGION_FIELDS:
            if len(getattr(self, name)) != self.n:
                raise ConfigError(
                    f"{name} must have {self.n} bound pairs, one per truth_step expression")
        if self.trajectory_length < len(self.dictionary):
            raise ConfigError(
                f"trajectory length {self.trajectory_length} is below the dictionary size "
                f"{len(self.dictionary)}; the rank condition cannot hold"
            )
        if not set(self.activations) <= set(ACTIVATIONS):
            raise ConfigError(f"activations must name one or more of {', '.join(ACTIVATIONS)}, "
                              f"got {list(self.activations)!r}")
        if not 0 < self.delta < math.inf:
            raise ConfigError("delta must be > 0 and finite")
        if not self.max_boxes >= 1:
            raise ConfigError("max_boxes must be >= 1")
        try:
            self.safety_spec()
            self.truth_model()
            self.dictionary_obj()
            self.kbc()
            self.cegis_config(0)
        except ValueError as err:
            raise ConfigError(str(err)) from err

    # -- builders ---------------------------------------------------------

    def truth_model(self) -> ExprMap:
        return ExprMap(tuple(parse_expr(t) for t in self.truth_step), self.n)

    def dictionary_obj(self) -> ExprMap:
        return ExprMap(tuple(parse_expr(t) for t in self.dictionary), self.n)

    def safety_spec(self) -> SafetySpec:
        return SafetySpec(X=Box.from_bounds(self.state_space),
                          X_I=Box.from_bounds(self.initial_region),
                          X_U=Box.from_bounds(self.unsafe_region))

    def kbc(self) -> KBCSpec:
        return KBCSpec(k=self.k, epsilon=self.epsilon)

    def train_config(self) -> TrainConfig:
        return TrainConfig(eta=self.eta, epochs=self.epochs, learning_rate=self.learning_rate)

    def cegis_config(self, seed: int) -> CegisConfig:
        return CegisConfig(max_iterations=self.max_iterations, cex_points=self.cex_points,
                           cex_radius=self.cex_radius, lr_retrain=self.lr_retrain,
                           train=self.train_config(), samples=self.samples, seed=seed)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseStudyConfig":
        try:
            return cls(**payload)
        except TypeError as err:
            raise ConfigError(f"malformed config document: {err}") from err


def load_config(source) -> CaseStudyConfig:
    """Load a case study from a builtin name or a JSON file path."""
    name = str(source)
    if name in BUILTIN_NAMES:
        return builtin_config(name)
    try:
        with open(name) as fh:
            payload = json.load(fh)
    except OSError as err:
        raise ConfigError(
            f"unknown case study {name!r}: not a builtin "
            f"({', '.join(BUILTIN_NAMES)}) and not a readable file"
        ) from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {name}: {err}") from err
    return CaseStudyConfig.from_dict(payload)


# ---------------------------------------------------------------------------
# Built-in catalog
# ---------------------------------------------------------------------------

def _highly_nonlinear() -> CaseStudyConfig:
    dt = 0.1
    x1, x2 = "(var 0)", "(var 1)"
    drift1 = f"(add (add {x2} (exp (neg {x1}))) (pow (sin {x1}) 2))"
    drift2 = f"(add (sub {x1} (pow (sin {x1}) 2)) (pow (cos {x1}) 2))"
    return CaseStudyConfig(
        name="highly-nonlinear",
        truth_step=(
            f"(add {x1} (mul (const {dt}) {drift1}))",
            f"(add {x2} (mul (const {dt}) {drift2}))",
        ),
        dictionary=(
            x1, x2,
            f"(exp (neg {x1}))", f"(exp (neg {x2}))",
            f"(pow (sin {x1}) 2)", f"(pow (cos {x1}) 2)",
        ),
        x0=(0.5, -1.0),
        trajectory_length=7,
        state_space=((-2.0, 2.0), (-2.0, 2.0)),
        initial_region=((0.5, 1.5), (-2.0, -1.0)),
        unsafe_region=((-0.5, 0.5), (0.6, 1.8)),
        k=2,
        epsilon=0.1,
        eta=(0.0, 0.001, 0.0, 0.0),
        activations=mixed_sin_cos(4),
        samples=1000,
        cex_points=20,
        cex_radius=0.1,
    )


def _polynomial() -> CaseStudyConfig:
    dt = 0.1
    x1, x2 = "(var 0)", "(var 1)"
    drift1 = f"(add {x2} (mul (const 2.0) (mul {x1} {x2})))"
    drift2 = (f"(add (sub (mul (const 2.0) (pow {x1} 2)) {x1})"
              f" (neg (mul (const 2.0) (pow {x2} 2))))")
    return CaseStudyConfig(
        name="polynomial",
        truth_step=(
            f"(add {x1} (mul (const {dt}) {drift1}))",
            f"(add {x2} (mul (const {dt}) {drift2}))",
        ),
        dictionary=(x1, x2, f"(mul {x1} {x2})", f"(pow {x1} 2)", f"(pow {x2} 2)"),
        x0=(0.5, -2.0),
        trajectory_length=6,
        state_space=((-2.0, 2.0), (-2.0, 2.0)),
        initial_region=((0.5, 1.5), (-2.0, -1.0)),
        unsafe_region=((-2.0, -1.0), (-0.5, 0.5)),
        k=3,
        epsilon=0.1,
        eta=(0.1, 0.001, 0.0, 0.0),
        activations=("square", "square"),
        samples=100,
        cex_points=20,
        cex_radius=0.1,
    )


def _pendulum() -> CaseStudyConfig:
    dt = 0.1
    gravity, mass, length, damping = 9.81, 1.0, 0.1, 1.0
    x1, x2 = "(var 0)", "(var 1)"
    # x2 drift: g*sin(x1) - (b/m)*x2 + (-g*m*l*x1 + b*x2) / (m*l)
    c_sin = gravity
    c_x1 = -gravity
    c_x2 = -damping / mass + damping / (mass * length)
    drift2 = (f"(add (add (mul (const {c_sin}) (sin {x1})) (mul (const {c_x1}) {x1}))"
              f" (mul (const {c_x2}) {x2}))")
    return CaseStudyConfig(
        name="pendulum",
        truth_step=(
            f"(add {x1} (mul (const {dt}) {x2}))",
            f"(add {x2} (mul (const {dt}) {drift2}))",
        ),
        dictionary=(x1, x2, f"(sin {x1})", f"(cos {x1})"),
        x0=(0.5, -1.5),
        trajectory_length=5,
        state_space=((-2.0, 2.0), (-2.0, 2.0)),
        initial_region=((-0.5, 0.5), (-1.5, -1.0)),
        unsafe_region=((0.0, 1.0), (0.1, 1.1)),
        k=2,
        epsilon=0.1,
        eta=(0.1, 0.001, 0.0, 0.0),
        activations=("square",) * 32,
        samples=1000,
        cex_points=10,
        cex_radius=0.1,
    )


_BUILTINS = {
    "highly-nonlinear": _highly_nonlinear,
    "polynomial": _polynomial,
    "pendulum": _pendulum,
}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_config(name: str) -> CaseStudyConfig:
    """One of the three bundled case studies."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown case study {name!r}; builtins are {', '.join(BUILTIN_NAMES)}"
        ) from None
