"""Physical constants, experiment configuration and validation.

All quantities are SI. A configuration bundles the sphere (mass, radius),
the spin superposition weights, the magnetic splitting protocol (times
T1..T5, field B0 and gradient B0') and the initial Gaussian spread Q0.
Constants live in a small named registry so the whole pipeline can be
re-run against alternative values of hbar etc.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from pathlib import Path

# absolute tolerance for time comparisons (s); tighter is meaningless in
# double precision over seconds
TIME_TOL = 1e-12
WEIGHT_TOL = 1e-12


class Branch(enum.Enum):
    """Spin branch of the superposition along the quantization axis."""

    PLUS = 1
    MINUS = -1

    @property
    def sign(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class ConstantsSet:
    """Named set of physical constants.

    G        : gravitational constant (m^3 kg^-1 s^-2)
    hbar     : reduced Planck constant (J s)
    mu_B     : Bohr magneton (J/T)
    g_factor : electron g-factor (dimensionless)
    """

    name: str
    G: float
    hbar: float
    mu_B: float
    g_factor: float


# The "paper" set uses hbar = 1.00e-34 J s: the published reference numbers
# (naive estimate -15.59 rad, omega_trap = 1.82 MHz at sqrt(Q0) = 1e-13 m)
# are reproduced only with that value.  "codata" carries the measured hbar.
CONSTANTS: dict[str, ConstantsSet] = {
    "paper": ConstantsSet(name="paper", G=6.674e-11, hbar=1.00e-34,
                          mu_B=9.274e-24, g_factor=2.0),
    "codata": ConstantsSet(name="codata", G=6.674e-11, hbar=1.0546e-34,
                           mu_B=9.274e-24, g_factor=2.0),
}

DEFAULT_CONSTANTS = "paper"


def get_constants(name: str) -> ConstantsSet:
    try:
        return CONSTANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown constants set {name!r}; available: {sorted(CONSTANTS)}"
        ) from None


@dataclass(frozen=True)
class SphereParams:
    """Homogeneous sphere: mass (kg) and radius (m)."""

    mass: float
    radius: float

    @property
    def density(self) -> float:
        """Bulk density m / (4/3 pi R^3) (kg/m^3)."""
        return self.mass / (4.0 / 3.0 * math.pi * self.radius**3)


@dataclass(frozen=True)
class SpinWeights:
    """Squared amplitudes |beta_+|^2, |beta_-|^2 of the spin superposition."""

    beta_plus_sq: float
    beta_minus_sq: float

    @classmethod
    def from_plus(cls, beta_plus_sq: float) -> "SpinWeights":
        return cls(beta_plus_sq, 1.0 - beta_plus_sq)

    def beta_sq(self, branch: Branch) -> float:
        return self.beta_plus_sq if branch is Branch.PLUS else self.beta_minus_sq

    def beta(self, branch: Branch) -> float:
        return math.sqrt(self.beta_sq(branch))


@dataclass(frozen=True)
class Protocol:
    """Stern-Gerlach gradient schedule.

    The recombination constraint T2-T1 = T4-T3 = T5-T4 = T1 must hold for
    the packets to re-overlap with zero mean position and momentum.
    """

    T1: float
    T2: float
    T3: float
    T4: float
    T5: float
    B0: float = 0.0        # uniform field (T); its phase cancels at T5
    B0_grad: float = 1e6   # field gradient B0' (T/m)

    @classmethod
    def from_t1(cls, T1: float, hold: float, B0: float = 0.0,
                B0_grad: float = 1e6) -> "Protocol":
        """Build a valid protocol from T1 and the hold time T3-T2."""
        T2 = 2.0 * T1
        T3 = T2 + hold
        T4 = T3 + T1
        T5 = T4 + T1
        return cls(T1, T2, T3, T4, T5, B0=B0, B0_grad=B0_grad)

    @property
    def times(self) -> tuple[float, float, float, float, float]:
        return (self.T1, self.T2, self.T3, self.T4, self.T5)


@dataclass(frozen=True)
class InitialState:
    """Initial position variance Q0 (m^2) of the released trap ground state."""

    Q0: float

    @classmethod
    def from_sqrt(cls, sqrt_Q0: float) -> "InitialState":
        return cls(sqrt_Q0 * sqrt_Q0)

    @property
    def sqrt_Q0(self) -> float:
        return math.sqrt(self.Q0)


@dataclass(frozen=True)
class ExperimentConfig:
    constants: ConstantsSet
    sphere: SphereParams
    weights: SpinWeights
    protocol: Protocol
    initial: InitialState
    nuclear_correction: bool = False

    @property
    def omega_trap(self) -> float:
        """Trap frequency hbar/(m Q0) (rad/s) implied by the ground state."""
        return self.constants.hbar / (self.sphere.mass * self.initial.Q0)


def baseline_config(constants: str | ConstantsSet = DEFAULT_CONSTANTS,
                    sqrt_Q0: float = 1e-9,
                    nuclear_correction: bool = False) -> ExperimentConfig:
    """Reference configuration: m=5.5e-15 kg, R=1e-6 m, B0'=1e6 T/m,
    T1=0.25 s with a 1 s hold, |beta_+|^2 = 1/3."""
    cset = constants if isinstance(constants, ConstantsSet) else get_constants(constants)
    return ExperimentConfig(
        constants=cset,
        sphere=SphereParams(mass=5.5e-15, radius=1e-6),
        weights=SpinWeights.from_plus(1.0 / 3.0),
        protocol=Protocol.from_t1(0.25, hold=1.0),
        initial=InitialState.from_sqrt(sqrt_Q0),
        nuclear_correction=nuclear_correction,
    )


def short_protocol_config(constants: str | ConstantsSet = DEFAULT_CONSTANTS,
                          sqrt_Q0: float = 1e-9) -> ExperimentConfig:
    """Tabletop variant: all time intervals shrunk tenfold (T1=0.025 s,
    T5=0.2 s) so the packets barely clear side-by-side contact d ~ 2R."""
    cfg = baseline_config(constants, sqrt_Q0=sqrt_Q0)
    return replace(cfg, protocol=Protocol.from_t1(0.025, hold=0.1))


# ---------------------------------------------------------------------------
# derived closed forms

def omega_s(sphere: SphereParams, constants: ConstantsSet) -> float:
    """Self-gravity pulsation sqrt(G m / R^3) (rad/s)."""
    return math.sqrt(constants.G * sphere.mass / sphere.radius**3)


def separation_time(config: ExperimentConfig) -> float:
    """Time sqrt(4 m R / (g mu_B B0')) for the branch distance to reach 2R
    under the constant gradient force (s)."""
    c = config.constants
    s = config.sphere
    return math.sqrt(4.0 * s.mass * s.radius
                     / (c.g_factor * c.mu_B * config.protocol.B0_grad))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    field: str
    message: str
    value: object = None

    def __str__(self) -> str:
        if self.value is None:
            return f"{self.field}: {self.message}"
        return f"{self.field}: {self.message} (got {self.value!r})"


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate(config: ExperimentConfig) -> ValidationReport:
    """Check every invariant of the configuration.

    Returns a report instead of raising, so callers can surface all
    violations at once.  Idempotent and side-effect free.
    """
    v: list[Violation] = []
    c = config.constants
    # G = 0 is admitted: it is the no-gravity null limit of the model
    if not (c.G >= 0.0 and math.isfinite(c.G)):
        v.append(Violation("constants.G", "G must be >= 0", c.G))
    for name in ("hbar", "mu_B", "g_factor"):
        val = getattr(c, name)
        if not (val > 0.0 and math.isfinite(val)):
            v.append(Violation(f"constants.{name}", "must be strictly positive", val))

    s = config.sphere
    if not (s.mass > 0.0 and math.isfinite(s.mass)):
        v.append(Violation("sphere.mass", "must be > 0", s.mass))
    if not (s.radius > 0.0 and math.isfinite(s.radius)):
        v.append(Violation("sphere.radius", "must be > 0", s.radius))

    w = config.weights
    for name, val in (("beta_plus_sq", w.beta_plus_sq),
                      ("beta_minus_sq", w.beta_minus_sq)):
        if not (0.0 < val < 1.0):
            v.append(Violation(f"weights.{name}", "must lie in (0, 1)", val))
    if abs(w.beta_plus_sq + w.beta_minus_sq - 1.0) > WEIGHT_TOL:
        v.append(Violation("weights", "squared weights must sum to 1",
                           w.beta_plus_sq + w.beta_minus_sq))

    p = config.protocol
    T1, T2, T3, T4, T5 = p.times
    if not (0.0 < T1 < T2 <= T3 < T4 < T5):
        v.append(Violation("protocol", "times must be ordered "
                           "0 < T1 < T2 <= T3 < T4 < T5", p.times))
    else:
        for name, interval in (("T2-T1", T2 - T1), ("T4-T3", T4 - T3),
                               ("T5-T4", T5 - T4)):
            if abs(interval - T1) > TIME_TOL:
                v.append(Violation(f"protocol.{name}",
                                   "recombination constraint requires equality with T1",
                                   interval))
    if not (p.B0_grad > 0.0 and math.isfinite(p.B0_grad)):
        v.append(Violation("protocol.B0_grad", "must be > 0", p.B0_grad))
    if not (p.B0 >= 0.0 and math.isfinite(p.B0)):
        v.append(Violation("protocol.B0", "must be >= 0", p.B0))

    if not (config.initial.Q0 > 0.0 and math.isfinite(config.initial.Q0)):
        v.append(Violation("initial.Q0", "must be > 0", config.initial.Q0))

    return ValidationReport(ok=not v, violations=tuple(v))


def require_valid(config: ExperimentConfig) -> ExperimentConfig:
    """Raise ValueError listing all violations if the config is invalid."""
    report = validate(config)
    if not report.ok:
        lines = "; ".join(str(x) for x in report.violations)
        raise ValueError(f"invalid configuration: {lines}")
    return config


# ---------------------------------------------------------------------------
# flat key-value config files

def config_to_mapping(config: ExperimentConfig) -> dict[str, object]:
    """Flatten a config to the documented key-value schema."""
    p = config.protocol
    return {
        "constants.name": config.constants.name,
        "sphere.mass_kg": config.sphere.mass,
        "sphere.radius_m": config.sphere.radius,
        "weights.beta_plus_sq": config.weights.beta_plus_sq,
        "protocol.T1_s": p.T1,
        "protocol.T2_s": p.T2,
        "protocol.T3_s": p.T3,
        "protocol.T4_s": p.T4,
        "protocol.T5_s": p.T5,
        "protocol.B0_T": p.B0,
        "protocol.B0_grad_T_per_m": p.B0_grad,
        "initial.sqrtQ0_m": config.initial.sqrt_Q0,
        "nuclear_correction": config.nuclear_correction,
    }


def config_from_mapping(mapping: dict[str, object],
                        base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Build a config from flat keys, overriding `base` (default: baseline).

    A key that `config_to_mapping` does not write is a hard error.
    """
    cfg = base if base is not None else baseline_config()
    unknown = sorted(set(mapping) - set(config_to_mapping(cfg)))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    def fget(key: str, old: float) -> float:
        return float(mapping[key]) if key in mapping else old

    if "constants.name" in mapping:
        cfg = replace(cfg, constants=get_constants(str(mapping["constants.name"])))
    cfg = replace(cfg, sphere=SphereParams(
        mass=fget("sphere.mass_kg", cfg.sphere.mass),
        radius=fget("sphere.radius_m", cfg.sphere.radius)))
    if "weights.beta_plus_sq" in mapping:
        cfg = replace(cfg, weights=SpinWeights.from_plus(
            float(mapping["weights.beta_plus_sq"])))
    p = cfg.protocol
    cfg = replace(cfg, protocol=Protocol(
        T1=fget("protocol.T1_s", p.T1), T2=fget("protocol.T2_s", p.T2),
        T3=fget("protocol.T3_s", p.T3), T4=fget("protocol.T4_s", p.T4),
        T5=fget("protocol.T5_s", p.T5), B0=fget("protocol.B0_T", p.B0),
        B0_grad=fget("protocol.B0_grad_T_per_m", p.B0_grad)))
    if "initial.sqrtQ0_m" in mapping:
        cfg = replace(cfg, initial=InitialState.from_sqrt(
            float(mapping["initial.sqrtQ0_m"])))
    if "nuclear_correction" in mapping:
        raw = mapping["nuclear_correction"]
        if isinstance(raw, bool):
            flag = raw
        elif str(raw).lower() in ("true", "1", "yes", "on"):
            flag = True
        elif str(raw).lower() in ("false", "0", "no", "off"):
            flag = False
        else:
            raise ValueError(f"nuclear_correction: expected boolean, got {raw!r}")
        cfg = replace(cfg, nuclear_correction=flag)
    return cfg


def load_config(path: str | Path,
                base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat `key = value` config file ('#' starts a comment)."""
    mapping: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return config_from_mapping(mapping, base=base)
