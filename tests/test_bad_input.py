"""Seeded bad input: every command-line key refuses what it must, by name.

For each ``RunConfig`` key a numpy ``Generator`` draws texts from that key's
pool of refused values: NaN, infinities, negatives, 0 where refused, 1e308
and 1e-320 where refused, words, empty entries and lists, and the wrong
arity.  Each text is given once as a flag and once as a config-file line,
and must exit 2 with one line on stderr that names the key.  The runs are
in point mode at the zero announcement, and the sweep and validate modes
are replaced by a failure, so a text that a key fails to refuse runs no
sweep and starts no pool.  The fixed cases after the pools are bad inputs
mended earlier.
"""

import re
from dataclasses import fields

import numpy as np
import pytest

import cvconf.cli
import cvconf.rates
from cvconf.cli import RunConfig, main
from cvconf.gaussian import GaussianState, homodyne_condition
from cvconf.protocol import ProtocolParams
from cvconf.rates import MAX_SAMPLES, quadrature_cross_check, sweep_distance

# Texts drawn per pool entry of a key.
_DRAWS = 2


def _one_of(*texts):
    return lambda rng: str(rng.choice(texts))


NAN = _one_of("nan", "NaN", "-nan", "+nan")
INF = _one_of("inf", "-inf", "+inf", "Infinity", "-Infinity", "1e309", "-1e309")
ZERO = _one_of("0", "0.0", "-0", "0e5")
HUGE = _one_of("1e308", "1.7976931348623157e308")
TINY = _one_of("1e-320", "4.9e-324")
WORD = _one_of("abc", "one", "1..2", "0x10", "--", "1 2", "e5", "true")
EMPTY = _one_of("")
PAIR = _one_of("1,2", "0.5,0.5")
EMPTY_LIST = _one_of("", ",", ", ,")


def NEGATIVE(rng):
    """A negative float from -1e308 to a subnormal."""
    return f"{-10.0 ** rng.uniform(-320.0, 308.0):.17g}"


def NEGATIVE_INT(rng):
    return str(-int(rng.integers(1, 2**62)))


def NON_INTEGER(rng):
    return f"{rng.uniform(1.0, 1e6):.3f}"


def past(largest):
    """An integer above ``largest``."""
    return lambda rng: str(largest + 1 + int(rng.integers(0, 2**40)))


def entry_of(bad, size=None):
    """A comma list of ``size`` entries (1-4 if None), one of them ``bad``'s
    text and the others valid non-negative values."""
    def draw(rng):
        n = size or int(rng.integers(1, 5))
        entries = [f"{x:.6g}" for x in rng.uniform(0.5, 3.0, n)]
        entries[rng.integers(n)] = bad(rng)
        return ",".join(entries)
    return draw


def arity(rng):
    """A list of valid values whose length is not 3."""
    return ",".join(["1"] * int(rng.choice([1, 2, 4, 5])))


POOLS = {
    "mode": [_one_of("", "Sweep", "POINT", "nan", "sweeps", "0", "sweep,point")],
    "d_min": [NAN, INF, NEGATIVE, HUGE, WORD, EMPTY, PAIR],
    "d_max": [NAN, INF, NEGATIVE, HUGE, WORD, EMPTY, PAIR],
    "d_step": [NAN, INF, NEGATIVE, ZERO, TINY, WORD, EMPTY, PAIR],
    "distances": [entry_of(NAN), entry_of(INF), entry_of(NEGATIVE), entry_of(HUGE),
                  entry_of(WORD), entry_of(EMPTY), EMPTY_LIST],
    "sigma": [entry_of(NAN, 3), entry_of(INF, 3), entry_of(NEGATIVE, 3), entry_of(ZERO, 3),
              entry_of(WORD, 3), entry_of(EMPTY, 3), arity, EMPTY_LIST],
    "atten_db_km": [NAN, INF, NEGATIVE, HUGE, WORD, EMPTY, PAIR],
    "convention": [_one_of("", "Trace", "amp", "nan", "trace,amplitude")],
    "samples": [NAN, INF, NEGATIVE_INT, ZERO, HUGE, TINY, WORD, EMPTY, NON_INTEGER,
                past(MAX_SAMPLES)],
    "seed": [NAN, INF, NEGATIVE_INT, HUGE, TINY, WORD, EMPTY, NON_INTEGER, past(2**64 - 1)],
    "out": [EMPTY],
    "format": [_one_of("", "CSV", "xml", "nan", "csv,json")],
    "workers": [NAN, INF, NEGATIVE_INT, ZERO, HUGE, TINY, WORD, EMPTY, NON_INTEGER],
    "mags": [entry_of(NAN, 3), entry_of(INF, 3), entry_of(NEGATIVE, 3), entry_of(HUGE, 3),
             entry_of(WORD, 3), entry_of(EMPTY, 3), arity, EMPTY_LIST],
    "gamma": [NAN, INF, HUGE, WORD, EMPTY, PAIR],
}

# Every run is in point mode at the zero announcement but for the key it tests.
BASE = {"mode": "point", "mags": "0,0,0"}


def _flag(key: str, text: str) -> str:
    return f"--{key.replace('_', '-')}={text}"


@pytest.fixture
def no_sweep(monkeypatch):
    """A mode that would sample fails at once instead."""
    def refused(config):
        raise AssertionError(f"a bad value ran {config.mode} mode")

    monkeypatch.setattr(cvconf.cli, "_run_sweep", refused)
    monkeypatch.setattr(cvconf.cli, "_run_validate", refused)


def _assert_named(argv, key, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, ""), argv
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    name = rf"(?<![\w-])(?:{key}|--{key.replace('_', '-')})(?![\w-])"
    assert re.search(name, err), (argv, err)


def test_every_key_has_a_pool():
    assert list(POOLS) == [key.name for key in fields(RunConfig)]


@pytest.mark.parametrize("key", list(POOLS))
def test_key_refuses_its_pool_by_name(key, tmp_path, capsys, no_sweep):
    rng = np.random.default_rng([2026, list(POOLS).index(key)])
    base = [_flag(k, text) for k, text in BASE.items() if k != key]
    path = tmp_path / "run.conf"
    for draw in POOLS[key]:
        for _ in range(_DRAWS):
            text = draw(rng)
            _assert_named(base + [_flag(key, text)], key, capsys)
            path.write_text(f"{key} = {text}\n", encoding="utf-8")
            _assert_named(base + ["--config", str(path)], key, capsys)


@pytest.mark.parametrize("argv, key", [
    (["--gamma=abc"], "gamma"),             # a non-numeric outcome
    (["--distances=1,abc"], "distances"),   # a non-numeric distance
    (["--atten-db-km=1e308"], "atten_db_km"),  # once named d_max alone
    (["--d-step=--"], "d_step"),            # argparse gives the text "--" as []
    (["--out="], "out"),                    # an empty path, once refused after the run
    (["--distances=1,,2"], "distances"),    # an empty entry, once dropped
    (["--sigma=1,1,1,"], "sigma"),          # a trailing comma, once dropped
])
def test_fixed_cli_cases(argv, key, capsys, no_sweep):
    _assert_named([_flag(k, text) for k, text in BASE.items()] + argv, key, capsys)


def test_multi_distance_point_run(capsys, no_sweep):
    """Point mode prints one block per distance of its grid, in grid order."""
    assert main(["--mode", "point", "--mags", "1,0.5,2", "--gamma", "0.3",
                 "--distances", "2.5,0,1"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert re.findall(r"^distance_km = (.*)$", out, re.M) == ["2.5", "0", "1"]


@pytest.mark.parametrize("call, name", [
    (lambda: homodyne_condition(GaussianState(np.zeros(2), np.eye(2)), 0, "q", "abc"),
     "outcome"),
    (lambda: sweep_distance(ProtocolParams(tau=(1.0, 1.0, 1.0)), [0.0, "abc"], 64),
     "distances"),
    # sigma whose quadrature grid is past the cap, and sigma at the float limit.
    (lambda: quadrature_cross_check(ProtocolParams(tau=(0.9,) * 3, sigma=(1e-8,) * 3), 8),
     "sigma"),
    (lambda: quadrature_cross_check(ProtocolParams(tau=(0.9,) * 3, sigma=(1e308,) * 3), 8),
     "sigma"),
])
def test_fixed_api_cases(call, name, monkeypatch):
    def no_block(args):
        raise AssertionError("a bad value drew a block")

    monkeypatch.setattr(cvconf.rates, "_mc_block", no_block)
    with pytest.raises(ValueError, match=name):
        call()
