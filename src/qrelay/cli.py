"""Command-line front-end: seeded runs, exact enumeration, self-test.

Reports are JSON with sorted keys so identical configurations produce
byte-identical output: the top level is indented by two spaces, and each
trial or path record is one compact line. Complex amplitudes travel as
[re, im] pairs, both in configuration files and in reports. Exit codes:
0 success, 1 usage, validation or I/O error, 2 resource budget exceeded,
3 self-test failure.
Both commands are closed-form and run no state-vector code, so no report
byte depends on the BLAS kernel: `run` uses the trajectory engine and
writes `--history` snapshots as Z^e psi0, with `run_chain` as the
library's oracle, and `enumerate` lists every path's Z^K psi0 directly,
with `enumerate_branches` as its oracle. Z^K psi0 and F[K] come from
`chain._phase_pairs` and `chain.fidelity_table`. This module imports only
`core` and the engine names of `chain` (`tests/test_layers.py` checks it),
and takes the `--mode` spellings from `core.CorrectionMode`. `main` imports
`selftest`, the layer above this one, only for the `selftest` command, so
`run` and `enumerate` never load it.
Records are rendered column-wise: each field is written once per column
from a small table of strings, never once per record, and the report is
put together by one join per block of rows plus one final join.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .chain import (
    ChainConfig,
    NoiseSpec,
    TrajectoryBatch,
    _enumeration_exponent,
    _phase_pairs,
    fidelity_table,
    run_trajectories,
)
from .core import (
    CorrectionMode,
    PureState,
    ResourceLimitError,
    ValidationError,
    _check_int,
    basis_state,
    check_dim,
    make_state,
    random_state,
)

DEFAULT_D = 3
DEFAULT_N = 3
DEFAULT_MODE = CorrectionMode.DEFERRED_FINAL.value
DEFAULT_SEED = 0
DEFAULT_TRIALS = 1
DEFAULT_STATE = "uniform"
# trials rendered by one join: bounds the pieces held at once, and the
# join's temporary list, while a run's report is built
RECORD_BLOCK_ROWS = 4096
# between two records of a report's list: one record per line
RECORD_SEPARATOR = ",\n    "


def _check_output_path(key: str, path: object) -> None:
    """Reject an output path that cannot be written, before any work runs."""
    if not isinstance(path, str):
        raise ValidationError(f"{key}: expected a file path string, got {path!r}")
    target = Path(path)
    if target.is_dir():
        raise ValidationError(f"{key}: {path} is a directory")
    if not target.parent.is_dir():
        raise ValidationError(f"{key}: directory {target.parent} does not exist")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ValidationError(f"{key}: {path} is not writable")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment parameters; `chain.seed` is the master seed.

    `trials` is None for `enumerate`, which has no trials. `state` is any
    spec `_resolve_state` accepts and is stored in its normalized form;
    `psi0` is the one-qudit input state it names, built here once.
    """

    chain: ChainConfig
    trials: int | None
    state: str | tuple[tuple[float, float], ...]
    out: str | None = None
    history: str | None = None
    psi0: PureState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        state, psi0 = _resolve_state(self.state, self.chain)
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "psi0", psi0)
        if self.trials is not None:
            object.__setattr__(self, "trials", _check_int("trials", self.trials, 1))
        for key in ("out", "history"):
            path = getattr(self, key)
            if path is not None:
                _check_output_path(key, path)
        if self.out is not None and self.history is not None:
            out, history = Path(self.out), Path(self.history)
            # resolved names catch symlinks and new files, inodes catch hard links
            if out.resolve() == history.resolve() or (
                out.exists() and history.exists() and out.samefile(history)
            ):
                raise ValidationError(f"history: {self.history} is the same file as out")


def _parse_mode(value: object) -> CorrectionMode:
    try:
        return CorrectionMode(value)
    except ValueError:
        expected = " or ".join(repr(mode.value) for mode in CorrectionMode)
        raise ValidationError(f"mode: expected {expected}, got {value!r}") from None


def _parse_noise(value: object) -> NoiseSpec:
    # NoiseSpec checks the entries, ChainConfig their count
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"noise.probs: expected a list of reals, got {value!r}")
    return NoiseSpec(tuple(value))


def _resolve_state(value: object, chain: ChainConfig) -> tuple[str | tuple[tuple[float, float], ...], PureState]:
    """The one reader of an initial-state spec: the spec as the report echoes it
    (a tag string or (re, im) pairs) and the one-qudit state it names."""
    d = chain.d
    if isinstance(value, str):
        if value == "uniform":
            return value, make_state(d, [1.0 / math.sqrt(d)] * d)
        if value == "random":
            # the spawn key keeps this stream apart from the trials' stream, default_rng(seed)
            stream = np.random.SeedSequence(chain.seed, spawn_key=(0,))
            return value, random_state(d, 1, np.random.default_rng(stream))
        # one spelling per basis state, so one input gives one report
        basis = [f"basis:{j}" for j in range(d)]
        if value in basis:
            return value, basis_state(d, (basis.index(value),))
        try:
            flat = [float(part) for part in value.split(",")]
        except ValueError:
            raise ValidationError(
                f"state: expected one of basis:0 .. basis:{d - 1}, 'uniform', 'random' or an amplitude list, "
                f"got {value!r}"
            ) from None
        if len(flat) != 2 * d:
            raise ValidationError(
                f"state: amplitude list needs {2 * d} reals (re, im per basis state), got {len(flat)}"
            )
        pairs = list(zip(flat[0::2], flat[1::2]))
    elif isinstance(value, (list, tuple)):
        pairs = []
        for i, item in enumerate(value):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ValidationError(f"state: amplitude {i} must be an [re, im] pair, got {item!r}")
            try:
                pair = (float(item[0]), float(item[1]))
            except (TypeError, ValueError, OverflowError):
                pair = None
            # booleans are not reals, as NoiseSpec does not take them as probabilities
            if pair is None or any(isinstance(part, (bool, np.bool_)) for part in item):
                raise ValidationError(f"state: amplitude {i} must hold two reals, got {item!r}")
            pairs.append(pair)
        if len(pairs) != d:
            raise ValidationError(f"state: expected {d} amplitude pairs, got {len(pairs)}")
    else:
        raise ValidationError(f"state: unsupported value {value!r}")
    try:
        return tuple(pairs), make_state(d, [complex(re, im) for re, im in pairs])
    except ValidationError as exc:  # the config key names the amplitudes here, not make_state's parameter
        raise ValidationError(f"state: {str(exc).removeprefix('amps: ')}") from None


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, bad JSON, an int past 4300 digits
        raise ValidationError(f"config: cannot read {path} as UTF-8 JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config: {path} must hold a JSON object")
    return data


def parse_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and command-line flags (flags win); the flags name the keys."""
    flags = {key: value for key, value in vars(args).items() if key not in ("command", "config")}
    raw = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(raw) - set(flags))
    if unknown:
        raise ValidationError(
            f"{unknown[0]}: not a setting of {args.command}; allowed keys are {sorted(flags)}"
        )
    raw.update((key, value) for key, value in flags.items() if value is not None)

    # d first: the noiseless default depends on it
    d = check_dim(raw.get("d", DEFAULT_D))
    noise = raw.get("noise")
    chain = ChainConfig(
        d=d,
        n=raw.get("n", DEFAULT_N),
        mode=_parse_mode(raw.get("mode", DEFAULT_MODE)),
        noise=NoiseSpec.noiseless(d) if noise is None else _parse_noise(noise),
        seed=raw.get("seed", DEFAULT_SEED),
    )
    return ExperimentConfig(
        chain=chain,
        trials=raw.get("trials", DEFAULT_TRIALS) if "trials" in flags else None,
        state=raw.get("state", DEFAULT_STATE),
        out=raw.get("out"),
        history=raw.get("history"),
    )


def _config_echo(config: ExperimentConfig) -> dict:
    """The settings both commands share, as a config file would give them."""
    chain = config.chain
    return {
        "d": chain.d,
        "n": chain.n,
        "mode": chain.mode.value,
        "noise": list(chain.noise.probs),
        "seed": chain.seed,
        "state": config.state,
    }


def write_history_csv(path: str, psi0: PureState, batch: TrajectoryBatch) -> None:
    """Trial 0's history as run_chain records it: psi0 with r = 0, then hop i's
    post-noise, pre-correction snapshot with r = a_i, in closed form as Z^e psi0
    (`chain._phase_pairs`), e = sum_{j<=i} k_j - a_i (local) or
    sum_{j<=i} (k_j - a_j) (deferred) mod d."""
    d, results = psi0.d, batch.results[0]
    spent = results if batch.deferred_exponents is None else np.cumsum(results)
    exponents = (np.cumsum(batch.noise_exponents[0]) - spent) % d
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["hop", "r", "amplitude_index", "re", "im"])
        for hop, (e, r) in enumerate(zip([0, *exponents.tolist()], [0, *results.tolist()])):
            for index, (re, im) in enumerate(_phase_pairs(psi0, e)):
                writer.writerow([hop, r, index, repr(re), repr(im)])


def _dit_table(n: int, d: int, closing: str) -> np.ndarray:
    """(n, d) strings: entry [k, j] writes dit j at position k of an n-dit list.

    Every position but the last carries the list's comma, the last carries
    `closing`, the text up to the record's next value.
    """
    table = np.array([[f"{j}," for j in range(d)]] * n, dtype=object)
    table[-1] = [f"{j}{closing}" for j in range(d)]
    return table


def _trial_blocks(batch: TrajectoryBatch, table: np.ndarray) -> list[str]:
    """The trial records as text, one string per RECORD_BLOCK_ROWS trials.

    The records are built column by column, never record by record. Every
    field but the trial index takes at most d^2 values, so each is a table
    of strings indexed by the batch's arrays (the fidelity by K, from
    `table` = fidelity_table(psi0)), and the keys and brackets ride on the
    table entries. Row i of the pieces array, read in order, is trial i's
    key-sorted record followed by RECORD_SEPARATOR (none after the last),
    and one join turns a block of rows into text. Ints are written by str
    and floats by repr, as json writes them.
    """
    (trials, n), d = batch.results.shape, len(table)
    fidelities = [repr(value) for value in table.tolist()]
    if batch.deferred_exponents is None:
        exponents, opening_index = ["null"], batch.phase_exponents
    else:
        exponents = [str(e) for e in range(d)]
        opening_index = batch.deferred_exponents * d + batch.phase_exponents
    opening = np.array(
        [f'{{"deferred_exponent":{e},"fidelity":{f},"noise_exponents":[' for e in exponents for f in fidelities],
        dtype=object,
    )
    noise = _dit_table(n, d, '],"results":[')
    results = _dit_table(n, d, '],"trial":')
    hop = np.arange(n)
    pieces = np.empty((min(trials, RECORD_BLOCK_ROWS), 2 * n + 3), dtype=object)
    pieces[:, -1] = "}" + RECORD_SEPARATOR
    blocks = []
    for lo in range(0, trials, RECORD_BLOCK_ROWS):
        hi = min(lo + RECORD_BLOCK_ROWS, trials)
        rows = pieces[: hi - lo]
        rows[:, 0] = opening[opening_index[lo:hi]]
        rows[:, 1 : n + 1] = noise[hop, batch.noise_exponents[lo:hi]]
        rows[:, n + 1 : 2 * n + 1] = results[hop, batch.results[lo:hi]]
        rows[:, -2] = list(map(str, range(lo, hi)))
        if hi == trials:
            rows[-1, -1] = "}"
        blocks.append("".join(rows.ravel().tolist()))
    return blocks


def cmd_run(config: ExperimentConfig) -> str:
    """Execute the configured number of seeded chain runs; return the report text."""
    batch = run_trajectories(config.chain, config.trials)
    if config.history:
        write_history_csv(config.history, config.psi0, batch)
    table = fidelity_table(config.psi0)
    fidelities = table[batch.phase_exponents]
    report = {
        "command": "run",
        "config": {**_config_echo(config), "trials": config.trials},
        "aggregate": {
            "fidelity_mean": float(np.mean(fidelities)),
            "fidelity_min": float(np.min(fidelities)),
            "outcome_histogram": np.bincount(batch.results.ravel(), minlength=config.chain.d).tolist(),
        },
        "history_path": config.history,
    }
    return render_report(report, "trials", _trial_blocks(batch, table))


def cmd_enumerate(config: ExperimentConfig) -> str:
    """List every carrier-outcome path exactly (noiseless or fixed noise).

    With the channel's fixed exponent k, every path delivers Z^K psi0 with
    K = n*k mod d, so all d^n records share one final state from
    _phase_pairs and one F[K] from fidelity_table; `enumerate_branches` is
    the state-vector oracle.
    The shared fields are encoded once, and the records differ only in
    their path digits, so each record is two pieces: one of d^(n//2)
    fronts (the shared head and the leading digits) and one of
    d^(n - n//2) backs (the trailing digits, the shared tail and the
    separator), interleaved by slice assignment. Returns the report text.
    """
    psi0, chain = config.psi0, config.chain
    exponent = chain.n * _enumeration_exponent(chain) % chain.d
    final = _phase_pairs(psi0, exponent)
    fid = float(fidelity_table(psi0)[exponent])
    total = chain.d**chain.n
    probability = 1.0 / total
    # key order: fidelity, final_state, path, probability
    head = json.dumps({"fidelity": fid, "final_state": final}, separators=(",", ":"))[:-1] + ',"path":['
    tail = f'],"probability":{probability!r}}}'
    table, lead = _dit_table(chain.n, chain.d, tail + RECORD_SEPARATOR).tolist(), chain.n // 2
    fronts = [head + "".join(dits) for dits in itertools.product(*table[:lead])]
    backs = ["".join(dits) for dits in itertools.product(*table[lead:])]
    # the path with front f and back b is record f * len(backs) + b
    pieces = [""] * (2 * total)
    pieces[0::2] = [front for front in fronts for _ in backs]
    pieces[1::2] = backs * len(fronts)
    pieces[-1] = backs[-1].removesuffix(RECORD_SEPARATOR)
    report = {
        "command": "enumerate",
        "config": _config_echo(config),
        "aggregate": {
            "path_count": total,
            # added path by path, so the sum checks the listed probabilities
            "probability_sum": sum(itertools.repeat(probability, total)),
            "fidelity_mean": fid,
            "fidelity_min": fid,
        },
    }
    return render_report(report, "paths", pieces)


def render_report(report: dict, key: str, body: list[str]) -> str:
    """`report` as indent-2 JSON with sorted keys, plus `key` holding the records in `body`.

    `body` is the record list's text in pieces: joined, it is compact,
    key-sorted JSON objects separated by RECORD_SEPARATOR, so the list
    holds one record per line. The opening part, the pieces and the closing
    part are joined once. Every string value is escaped, and nested keys
    are indented further, so the placeholder line is found exactly once.
    """
    placeholder = f'\n  "{key}": []'
    head, tail = json.dumps({**report, key: []}, indent=2, sort_keys=True).split(placeholder)
    return "".join([f'{head}\n  "{key}": [\n    ', *body, f"\n  ]{tail}\n"])


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, since 2 means a budget was exceeded."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qrelay",
        description="State-vector simulator for one-way qudit relay chains "
        "with phase-only teleportation correction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file; flags override its values")
    shared.add_argument("--d", type=int, help="qudit dimension (2..16, default 3)")
    shared.add_argument("--n", type=int, help="number of hops (default 3)")
    shared.add_argument("--mode", choices=[mode.value for mode in CorrectionMode], help="correction strategy")
    shared.add_argument("--noise", help="comma-separated p0,p1,... for the Z^k channel")
    shared.add_argument("--seed", type=int, help="master seed (default 0)")
    shared.add_argument(
        "--state",
        help="initial state: basis:<j> | uniform | random | re0,im0,re1,im1,...",
    )
    shared.add_argument("--out", help="write the JSON report here instead of stdout")
    run = subparsers.add_parser("run", parents=[shared], help="seeded Monte Carlo transmission runs")
    run.add_argument("--trials", type=int, help="Monte Carlo trials (default 1)")
    run.add_argument("--history", help="write the first trial's history CSV here")
    subparsers.add_parser("enumerate", parents=[shared], help="exact outcome-path enumeration")
    subparsers.add_parser("selftest", help="run the embedded acceptance checks")
    return parser


# parse_args leaves the parser unchanged, so one built at import serves every call
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "selftest":
            from . import selftest  # the layer above this module, so run and enumerate never load it
            return selftest.main()
        config = parse_config(args)
        text = cmd_run(config) if args.command == "run" else cmd_enumerate(config)
        if config.out:
            Path(config.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
