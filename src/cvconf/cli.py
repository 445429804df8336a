r"""Command-line front end.

Three modes:

``sweep``
    Rates of the symmetric configuration over a distance grid, written as
    CSV or JSON with one record per distance.
``point``
    The single-point mutual information, Holevo bound and rate at a
    user-supplied announcement (magnitudes and outcome), one five-line
    block per distance of the grid, in grid order.
``validate``
    The built-in oracle suites, on the draws of acceptance criteria 5 and
    4: the phase-space pipeline against the outcome likelihood both rate
    estimators use and against the tap exponents behind every overlap, and
    the Gram spectrum against the constructed density matrices.

Options may also be given in a flat ``key = value`` config file; explicit
flags take precedence over the file, which takes precedence over the
defaults.  Each key is declared once, as a :class:`RunConfig` field that
carries its parser from text and its help line, for flags and config files
alike, and :meth:`RunConfig.validate` is the only value check.  Every mode
renders its text, and one writer sends it to stdout or to ``--out``.
Identical configurations (including the seed) produce byte-identical output
files regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import re
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .gaussian import symplectic_eigenvalues
from .holevo import assemble_total_state, eve_overlaps, gram_oracle_entropy, \
    gram_spectrum, von_neumann_entropy
from .inference import sign_posterior_table
from .protocol import ProtocolParams, _draw_outcomes, eve_conditional_means, \
    outcome_density, simulate_relay
from .rates import MAX_SAMPLES, _single_point_terms, sweep_distance

__all__ = ["RunConfig", "ConfigError", "run", "main"]

CSV_HEADER = "distance_km,tau,rate_ps,rate_no_ps,stderr_ps,stderr_no_ps,n_samples,seed,convention"
_MAX_GRID_POINTS = 10_000


class ConfigError(ValueError):
    """A malformed configuration value; the message names the key."""


def _float_list(text: str) -> tuple[float, ...]:
    """A comma list; ``validate`` checks its length.  An empty entry is not a number."""
    return tuple(float(p) for p in text.split(","))


def _key(default, parse, help_text: str):
    """A config key: its default, its parser from text and its help line."""
    return field(default=default, metadata={"parse": parse, "help": help_text})


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults already applied).

    Each field is one key of the flags and the config file."""

    mode: str = _key("sweep", str, "sweep, point or validate")
    d_min: float = _key(0.0, float, "first distance in km")
    d_max: float = _key(7.0, float, "last distance in km")
    d_step: float = _key(1.0, float, "grid step in km")
    distances: tuple[float, ...] | None = _key(
        None, _float_list, "explicit comma-separated distances, overrides the grid")
    sigma: tuple[float, float, float] = _key(
        (1.0, 1.0, 1.0), _float_list, "modulation standard deviations, comma triple")
    atten_db_km: float = _key(0.2, float, "fibre attenuation in dB/km (default 0.2)")
    convention: str = _key(
        "trace", str, "overlap convention for the Holevo bound: trace or amplitude")
    samples: int = _key(1_000_000, int, "Monte-Carlo samples per distance")
    seed: int = _key(0, int, "random stream seed")
    out: str | None = _key(None, str, "output path (default: stdout)")
    format: str = _key("csv", str, "output format: csv or json")
    workers: int = _key(1, int, "parallel worker processes")
    mags: tuple[float, float, float] | None = _key(
        None, _float_list, "announced magnitudes for point mode, comma triple")
    gamma: float = _key(0.0, float, "relay outcome for point mode")

    def validate(self) -> None:
        for key in ("samples", "seed", "workers"):
            value = getattr(self, key)
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{key}: must be an integer, got {value!r}") from None
        if self.mode not in ("sweep", "point", "validate"):
            raise ConfigError(f"mode: must be sweep, point or validate, got {self.mode!r}")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples: must be between 1 and {MAX_SAMPLES}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed: must be non-negative and below 2**64")
        # Every range check below is written so that NaN fails it.
        if not 0 < self.d_step < math.inf:
            raise ConfigError("d_step: must be positive and finite")
        if not 0 <= self.d_min < math.inf:
            raise ConfigError("d_min: must be finite and non-negative")
        if not self.d_min <= self.d_max < math.inf:
            raise ConfigError("d_max: must be finite and at least d_min")
        # Below N + 1 steps the grid has at most N + 2 points, so it is cheap
        # to build and count; at N + 1 steps or more it has more than N.
        if self.distances is None and not (
                (self.d_max - self.d_min) / self.d_step < _MAX_GRID_POINTS + 1
                and len(self.distance_grid()) <= _MAX_GRID_POINTS):
            raise ConfigError(f"d_step: the grid from d_min to d_max must have "
                              f"at most {_MAX_GRID_POINTS} points")
        if self.distances is not None and (len(self.distances) == 0 or not all(
                0 <= d < math.inf for d in self.distances)):
            raise ConfigError("distances: must be a non-empty list of finite non-negative km values")
        if len(self.sigma) != 3 or not all(0 < s < math.inf for s in self.sigma):
            raise ConfigError("sigma: must be three positive finite values")
        if not 0 <= self.atten_db_km < math.inf:
            raise ConfigError("atten_db_km: must be finite and non-negative")
        if self.convention not in ("trace", "amplitude"):
            raise ConfigError(f"convention: must be trace or amplitude, got {self.convention!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format: must be csv or json, got {self.format!r}")
        if self.out == "":
            raise ConfigError("out: must be a path, got ''")
        if self.workers < 1:
            raise ConfigError("workers: must be at least 1")
        # The farthest distance has the smallest transmissivity; one that
        # underflows to 0 is named here rather than as a bad tau later, with
        # the attenuation that sets it too.
        key = "d_max" if self.distances is None else "distances"
        try:
            self.params_at(max(self.distance_grid()))
        except ValueError as exc:
            raise ConfigError(f"{key} and atten_db_km: {exc}") from None
        if self.mags is not None and (len(self.mags) != 3 or not all(
                0 <= m < math.inf for m in self.mags)):
            raise ConfigError("mags: must be three finite non-negative values")
        if not math.isfinite(self.gamma):
            raise ConfigError("gamma: must be finite")

    def distance_grid(self) -> list[float]:
        """Explicit distance list if given, else the (min, max, step) grid."""
        if self.distances is not None:
            return list(self.distances)
        n = int(round((self.d_max - self.d_min) / self.d_step)) + 1
        grid = [self.d_min + i * self.d_step for i in range(n)]
        return [d for d in grid if d <= self.d_max + 1e-12]

    def params_at(self, distance_km: float) -> ProtocolParams:
        template = ProtocolParams(
            tau=(1.0, 1.0, 1.0), sigma=self.sigma,
            attenuation_db_per_km=self.atten_db_km,
            overlap_convention=self.convention,
        )
        return template.at_distance(distance_km)


def _keys() -> dict:
    """Each key's parser from text, by name, in declaration order."""
    return {key.name: key.metadata["parse"] for key in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat 'key = value' file; '#' at a line's start or after
    whitespace starts a comment, so values may contain '#'."""
    keys = _keys()
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ConfigError(f"{key}: unknown config key")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flag text over config-file text, parse it, and fill in defaults."""
    keys = _keys()
    texts = load_config_file(args.config) if args.config is not None else {}
    # argparse gives the flag value "--" as []; it is parsed as the text it was.
    texts.update((key, "--" if text == [] else text) for key, text in vars(args).items()
                 if key in keys and text is not None)
    values = {}
    for key, text in texts.items():
        try:
            values[key] = keys[key](text)
        except ValueError:
            raise ConfigError(f"{key}: could not parse {text!r}") from None
    config = RunConfig(**values)
    config.validate()
    return config


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sweep_records(config: RunConfig) -> list[dict]:
    template = config.params_at(0.0)
    points = sweep_distance(template, config.distance_grid(), config.samples,
                            seed=config.seed, n_workers=config.workers)
    return [
        {
            "distance_km": p.distance_km,
            "tau": p.tau,
            "rate_ps": p.estimate.value,
            "rate_no_ps": p.estimate_no_ps.value,
            "stderr_ps": p.estimate.std_error,
            "stderr_no_ps": p.estimate_no_ps.std_error,
            "n_samples": p.estimate.n_samples,
            "seed": config.seed,
            "convention": config.convention,
        }
        for p in points
    ]


def _render_csv(records: list[dict]) -> str:
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER] + [
        ",".join(_fmt(r[c]) if isinstance(r[c], float) else str(r[c]) for c in columns)
        for r in records
    ]
    return "\n".join(lines) + "\n"


def _render_json(records: list[dict], config: RunConfig) -> str:
    payload = {
        "metadata": {
            "version": __version__,
            "attenuation_db_per_km": config.atten_db_km,
            "attenuation_exponent_per_km": config.params_at(0.0).attenuation_exponent,
            "config": {
                "mode": config.mode,
                "distances": [r["distance_km"] for r in records],
                "sigma": list(config.sigma),
                "convention": config.convention,
                "samples": config.samples,
                "seed": config.seed,
            },
        },
        "points": records,
    }
    return json.dumps(payload, indent=2) + "\n"


def _run_sweep(config: RunConfig) -> tuple[str, int]:
    records = _sweep_records(config)
    text = _render_csv(records) if config.format == "csv" else _render_json(records, config)
    return text, 0


def _run_point(config: RunConfig) -> tuple[str, int]:
    if config.mags is None:
        raise ConfigError("mags: required in point mode (three comma-separated values)")
    blocks = []
    for distance in config.distance_grid():
        params = config.params_at(distance)
        mi, chi = _single_point_terms(config.mags, config.gamma, params)
        blocks.append(f"distance_km = {_fmt(distance)}\ntau = {_fmt(params.tau[0])}\n"
                      f"mi = {_fmt(mi)}\nholevo = {_fmt(chi)}\nrate = {_fmt(mi - chi)}\n")
    return "".join(blocks), 0


def _draw_params(rng: np.random.Generator, convention: str) -> ProtocolParams:
    """A random configuration of the oracle suites: tau in (0, 1] and sigma
    in [0.2, 3] per party."""
    return ProtocolParams(tau=tuple(rng.uniform(0.0, 1.0, 3) + 1e-12),
                          sigma=tuple(rng.uniform(0.2, 3.0, 3)), overlap_convention=convention)


def _pipeline_check(rng: np.random.Generator) -> tuple[float, float, float, float]:
    """One random relay run through the phase-space pipeline against the model.

    Returns the relative error of the pipeline's outcome density against
    ``outcome_density``, the one-announcement view of the outcome model that
    both estimators' posterior and the quadrature's weight are built on, and
    for the eavesdropper's state: the largest deviation of its covariance
    from the identity and of its p-means from ``eve_conditional_means``, the
    view of the tap exponents behind every overlap, and its smallest
    symplectic eigenvalue.  The outcome is drawn by ``_draw_outcomes``, the
    draw side of that model.  Acceptance criterion 5 draws from here.
    """
    params = _draw_params(rng, "trace")
    signs = rng.choice([-1.0, 1.0], 3)
    p_mags = np.abs(rng.normal(0.0, params.sigma))
    q_mags = np.abs(rng.normal(0.0, params.sigma))
    gamma = float(next(_draw_outcomes(rng, signs, p_mags, [params])))
    result = simulate_relay(signs, q_mags, p_mags, params,
                            (rng.normal(), rng.normal(), gamma))
    want = outcome_density(signs, p_mags, gamma, params)
    eve = result.eve_state
    want_p = np.array([mp for _, mp in eve_conditional_means(signs, p_mags, params)])
    return (abs(result.reconciled_likelihood - want) / want,
            float(np.max(np.abs(eve.cov - np.eye(6)))),
            float(np.max(np.abs(eve.mean[1::2] - want_p))),
            float(np.min(symplectic_eigenvalues(eve.cov))))


def _spectrum_check(rng: np.random.Generator, convention: str) -> tuple[float, float]:
    """One random announcement's constructed density matrix against the Gram oracle.

    Returns the largest deviation of the constructed total state's spectrum
    from the Gram spectrum, and of its entropy from the Gram entropy.  The
    outcome is drawn by ``_draw_outcomes``.  Acceptance criterion 4 draws
    from here.
    """
    params = _draw_params(rng, convention)
    mags = np.abs(rng.normal(0.0, params.sigma))
    signs = rng.choice([-1.0, 1.0], 3)
    gamma = float(next(_draw_outcomes(rng, signs, mags, [params])))
    table = sign_posterior_table(mags, gamma, params)
    overlaps = eve_overlaps(mags, params)
    rho = assemble_total_state(table, overlaps)
    constructed = np.linalg.eigvalsh(rho.matrix)
    return (float(np.max(np.abs(constructed - gram_spectrum(table.probs, overlaps)))),
            abs(von_neumann_entropy(rho) - gram_oracle_entropy(table.probs, overlaps)))


# The oracle suites, in the order validate mode runs them.  Each is one
# draw's check, given the generator and the draw's index, beside the rule
# that passes what it returns; the spectrum suite alternates the conventions.
_SUITES = {
    "pipeline oracle": (
        lambda rng, k: _pipeline_check(rng),
        lambda rel, cov_dev, mean_dev, min_nu: (
            rel <= 1e-10 and cov_dev <= 1e-12 and mean_dev <= 1e-12 and min_nu >= 1.0 - 1e-9)),
    "spectrum oracle": (
        lambda rng, k: _spectrum_check(rng, ("trace", "amplitude")[k % 2]),
        lambda eig_dev, ent_dev: eig_dev <= 1e-10 and ent_dev <= 1e-9),
}


def _run_suite(rng: np.random.Generator, name: str, n_draws: int) -> tuple[int, int]:
    """n_draws draws of suite ``name``'s check, counted where its pass rule
    accepts them; returns (passed, total)."""
    check, passes = _SUITES[name]
    return sum(bool(passes(*check(rng, k))) for k in range(n_draws)), n_draws


def _run_validate(config: RunConfig) -> tuple[str, int]:
    rng = np.random.default_rng(config.seed)
    lines, failures = [], 0
    for name in _SUITES:
        passed, total = _run_suite(rng, name, 1000)
        lines.append(f"{name}: {passed}/{total} passed\n")
        failures += total - passed
    lines.append("validation OK\n" if failures == 0 else
                 f"validation FAILED ({failures} checks)\n")
    return "".join(lines), 0 if failures == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvconf",
        description="Post-selected key rates of the three-party relay protocol.",
        epilog="A malformed value exits with status 2 and names its key.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags take precedence")
    for key in fields(RunConfig):
        parser.add_argument("--" + key.name.replace("_", "-"), help=key.metadata["help"])
    return parser


def run(config: RunConfig) -> int:
    """Execute one fully resolved configuration and write its output to
    stdout or to ``config.out``; returns the exit status."""
    config.validate()
    mode = {"sweep": _run_sweep, "point": _run_point, "validate": _run_validate}
    text, status = mode[config.mode](config)
    if config.out is None:
        sys.stdout.write(text)
        return status
    try:
        with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 1
    return status


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return run(build_config(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
