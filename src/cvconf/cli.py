r"""Command-line front end.

Three modes:

``sweep``
    Rates of the symmetric configuration over a distance grid, written as
    CSV or JSON with one record per distance.
``point``
    The single-point mutual information, Holevo bound and rate at a
    user-supplied announcement (magnitudes and outcome).
``validate``
    The built-in oracle suites: the phase-space pipeline against the
    analytic outcome density, and the Gram spectrum against the
    constructed density matrices.

Options may also be given in a flat ``key = value`` config file; explicit
flags take precedence over the file, which takes precedence over the
defaults.  Identical configurations (including the seed) produce
byte-identical output files regardless of the worker count.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .gaussian import symplectic_eigenvalues
from .holevo import assemble_total_state, eve_overlaps, gram_oracle_entropy, \
    gram_spectrum, von_neumann_entropy
from .inference import sign_posterior_table
from .protocol import ProtocolParams, eve_conditional_means, outcome_density, \
    simulate_relay
from .rates import _single_point_terms, sweep_distance

__all__ = ["RunConfig", "ConfigError", "run", "main"]

CSV_HEADER = "distance_km,tau,rate_ps,rate_no_ps,stderr_ps,stderr_no_ps,n_samples,seed,convention"


class ConfigError(ValueError):
    """A malformed configuration value; the message names the key."""


@dataclass
class RunConfig:
    """Fully resolved run configuration (defaults already applied)."""

    mode: str = "sweep"
    d_min: float = 0.0
    d_max: float = 7.0
    d_step: float = 1.0
    distances: tuple[float, ...] | None = None
    sigma: tuple[float, float, float] = (1.0, 1.0, 1.0)
    atten_db_km: float = 0.2
    convention: str = "trace"
    samples: int = 1_000_000
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    workers: int = 1
    mags: tuple[float, float, float] | None = None
    gamma: float = 0.0

    def validate(self) -> None:
        if self.mode not in ("sweep", "point", "validate"):
            raise ConfigError(f"mode: must be sweep, point or validate, got {self.mode!r}")
        if self.samples < 1:
            raise ConfigError("samples: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be non-negative")
        # Every range check below is written so that NaN fails it.
        if not 0 < self.d_step < math.inf:
            raise ConfigError("d_step: must be positive and finite")
        if not 0 <= self.d_min < math.inf:
            raise ConfigError("d_min: must be finite and non-negative")
        if not self.d_min <= self.d_max < math.inf:
            raise ConfigError("d_max: must be finite and at least d_min")
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
        if self.workers < 1:
            raise ConfigError("workers: must be at least 1")
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


def _parse_triple(text: str, key: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{key}: could not parse {text!r} as numbers") from None


def _parse_distances(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigError(f"distances: could not parse {text!r} as numbers") from None


def load_config_file(path: str) -> dict:
    """Parse a flat 'key = value' file; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_FILE_PARSERS = {
    "mode": str,
    "d_min": float,
    "d_max": float,
    "d_step": float,
    "distances": _parse_distances,
    "sigma": lambda text: _parse_triple(text, "sigma"),
    "atten_db_km": float,
    "convention": str,
    "samples": int,
    "seed": int,
    "out": str,
    "format": str,
    "workers": int,
    "mags": lambda text: _parse_triple(text, "mags"),
    "gamma": float,
}


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file values over defaults."""
    merged: dict = {}
    if args.config is not None:
        for key, text in load_config_file(args.config).items():
            if key not in _FILE_PARSERS:
                raise ConfigError(f"{key}: unknown config key")
            try:
                merged[key] = _FILE_PARSERS[key](text)
            except ConfigError:
                raise
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: could not parse {text!r}") from None
    for field in fields(RunConfig):
        flag_value = getattr(args, field.name, None)
        if flag_value is None:
            continue
        if field.name in ("sigma", "mags", "distances") and isinstance(flag_value, str):
            flag_value = _FILE_PARSERS[field.name](flag_value)
        merged[field.name] = flag_value
    config = RunConfig(**merged)
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
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            _fmt(r["distance_km"]), _fmt(r["tau"]),
            _fmt(r["rate_ps"]), _fmt(r["rate_no_ps"]),
            _fmt(r["stderr_ps"]), _fmt(r["stderr_no_ps"]),
            str(r["n_samples"]), str(r["seed"]), r["convention"],
        ]))
    return "\n".join(lines) + "\n"


def _render_json(records: list[dict], config: RunConfig) -> str:
    payload = {
        "metadata": {
            "version": __version__,
            "attenuation_db_per_km": config.atten_db_km,
            "attenuation_exponent_per_km": config.atten_db_km / 10.0,
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


def _write_output(text: str, config: RunConfig, stdout: io.TextIOBase) -> int:
    if config.out is None:
        stdout.write(text)
        return 0
    try:
        with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {config.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _run_sweep(config: RunConfig, stdout: io.TextIOBase) -> int:
    records = _sweep_records(config)
    if config.format == "csv":
        text = _render_csv(records)
    else:
        text = _render_json(records, config)
    return _write_output(text, config, stdout)


def _run_point(config: RunConfig, stdout: io.TextIOBase) -> int:
    if config.mags is None:
        raise ConfigError("mags: required in point mode (three comma-separated values)")
    distance = config.distance_grid()[0]
    params = config.params_at(distance)
    mi, chi = _single_point_terms(config.mags, config.gamma, params)
    stdout.write(f"distance_km = {_fmt(distance)}\n")
    stdout.write(f"tau = {_fmt(params.tau[0])}\n")
    stdout.write(f"mi = {_fmt(mi)}\n")
    stdout.write(f"holevo = {_fmt(chi)}\n")
    stdout.write(f"rate = {_fmt(mi - chi)}\n")
    return 0


def _validate_pipeline(rng: np.random.Generator, n_draws: int) -> tuple[int, int]:
    """Phase-space pipeline against the analytic density; returns (passed, total)."""
    passed = 0
    for _ in range(n_draws):
        params = ProtocolParams(
            tau=tuple(rng.uniform(0.05, 1.0, 3)),
            sigma=tuple(rng.uniform(0.2, 3.0, 3)),
        )
        signs = tuple(rng.choice([-1.0, 1.0], 3))
        p_mags = np.abs(rng.normal(0.0, params.sigma))
        q_mags = np.abs(rng.normal(0.0, params.sigma))
        gamma = float(rng.normal(0.0, 2.0))
        q_outs = rng.normal(0.0, 1.5, 2)
        result = simulate_relay(signs, q_mags, p_mags, params,
                                (q_outs[0], q_outs[1], gamma))
        analytic = outcome_density(signs, p_mags, gamma, params)
        ok = abs(result.reconciled_likelihood - analytic) <= 1e-10 * analytic
        eve = result.eve_state
        ok &= bool(np.max(np.abs(eve.cov - np.eye(6))) <= 1e-12)
        expected = eve_conditional_means(signs, p_mags, params)
        for mode, (mq, mp) in enumerate(expected):
            ok &= abs(eve.mean[2 * mode + 1] - mp) <= 1e-12
        ok &= bool(np.min(symplectic_eigenvalues(eve.cov)) >= 1.0 - 1e-9)
        passed += int(ok)
    return passed, n_draws


def _validate_spectrum(rng: np.random.Generator, n_draws: int) -> tuple[int, int]:
    """Constructed density matrix against the Gram oracle; returns (passed, total)."""
    passed = 0
    for _ in range(n_draws):
        params = ProtocolParams(
            tau=tuple(rng.uniform(0.05, 1.0, 3)),
            sigma=tuple(rng.uniform(0.2, 3.0, 3)),
            overlap_convention=rng.choice(["trace", "amplitude"]),
        )
        mags = np.abs(rng.normal(0.0, params.sigma))
        gamma = float(rng.normal(0.0, 2.0))
        table = sign_posterior_table(mags, gamma, params)
        overlaps = eve_overlaps(mags, params)
        rho = assemble_total_state(table, overlaps)
        constructed = np.linalg.eigvalsh(rho.matrix)
        oracle = gram_spectrum(table.probs, overlaps)
        ok = bool(np.max(np.abs(constructed - oracle)) <= 1e-10)
        ok &= abs(von_neumann_entropy(rho)
                  - gram_oracle_entropy(table.probs, overlaps)) <= 1e-9
        passed += int(ok)
    return passed, n_draws


def _run_validate(config: RunConfig, stdout: io.TextIOBase) -> int:
    rng = np.random.default_rng(config.seed)
    failures = 0
    for name, suite in (("pipeline oracle", _validate_pipeline),
                        ("spectrum oracle", _validate_spectrum)):
        passed, total = suite(rng, 1000)
        stdout.write(f"{name}: {passed}/{total} passed\n")
        failures += total - passed
    stdout.write("validation OK\n" if failures == 0 else
                 f"validation FAILED ({failures} checks)\n")
    return 0 if failures == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvconf",
        description="Post-selected key rates of the three-party relay protocol.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags take precedence")
    parser.add_argument("--mode", choices=["sweep", "point", "validate"])
    parser.add_argument("--d-min", dest="d_min", type=float, help="first distance in km")
    parser.add_argument("--d-max", dest="d_max", type=float, help="last distance in km")
    parser.add_argument("--d-step", dest="d_step", type=float, help="grid step in km")
    parser.add_argument("--distances",
                        help="explicit comma-separated distances, overrides the grid")
    parser.add_argument("--sigma",
                        help="modulation standard deviations, comma triple")
    parser.add_argument("--atten-db-km", dest="atten_db_km", type=float,
                        help="fibre attenuation in dB/km (default 0.2)")
    parser.add_argument("--convention", choices=["trace", "amplitude"],
                        help="overlap convention for the Holevo bound")
    parser.add_argument("--samples", type=int, help="Monte-Carlo samples per distance")
    parser.add_argument("--seed", type=int, help="random stream seed")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    parser.add_argument("--mags",
                        help="announced magnitudes for point mode, comma triple")
    parser.add_argument("--gamma", type=float, help="relay outcome for point mode")
    return parser


def run(config: RunConfig, stdout: io.TextIOBase | None = None) -> int:
    """Execute one fully resolved configuration; returns the exit status."""
    stdout = stdout if stdout is not None else sys.stdout
    config.validate()
    if config.mode == "sweep":
        return _run_sweep(config, stdout)
    if config.mode == "point":
        return _run_point(config, stdout)
    return _run_validate(config, stdout)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
