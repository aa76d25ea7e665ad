import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrelay.chain
import qrelay.cli
from qrelay import gates, selftest
from qrelay.chain import enumerate_branches, expected_fidelity, fidelity_table, run_chain, run_trajectories
from qrelay.cli import (
    ExperimentConfig,
    build_parser,
    cmd_enumerate,
    cmd_run,
    main,
    parse_config,
    render_report,
)
from qrelay.core import ValidationError, random_state
from qrelay.teleport import CorrectionMode, prepare_hop
from test_gates import python_product


ROOT = Path(__file__).resolve().parents[1]
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def parse(argv):
    return parse_config(build_parser().parse_args(argv))


class TestParseConfig:
    def test_defaults(self):
        config = parse(["run"])
        assert (config.chain.d, config.chain.n) == (3, 3)
        assert config.chain.mode is CorrectionMode.DEFERRED_FINAL
        assert config.chain.noise.probs == (1.0, 0.0, 0.0)
        assert (config.chain.seed, config.trials) == (0, 1)
        assert config.state == "uniform"
        assert parse(["enumerate"]).trials is None

    def test_flags(self):
        config = parse(["run", "--d", "2", "--n", "5", "--mode", "local", "--noise", "0.5,0.5",
                        "--seed", "9", "--trials", "4", "--state", "basis:1"])
        assert (config.chain.d, config.chain.n, config.chain.seed, config.trials) == (2, 5, 9, 4)
        assert config.chain.mode is CorrectionMode.LOCAL_EACH_HOP
        assert config.chain.noise.probs == (0.5, 0.5)
        assert config.state == "basis:1"

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"d": 2, "n": 4, "seed": 11, "state": "basis:0"}))
        config = parse(["run", "--config", str(path), "--n", "7"])
        assert (config.chain.d, config.chain.n, config.chain.seed) == (2, 7, 11)

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"d": 2, "hops": 4}))
        for command in ("run", "enumerate"):
            with pytest.raises(ValidationError, match="^hops:"):
                parse([command, "--config", str(path)])

    def test_noise_sum_error_names_field(self):
        with pytest.raises(ValidationError, match="noise.probs"):
            parse(["run", "--d", "2", "--noise", "0.5,0.4"])
        with pytest.raises(ValidationError, match="noise.probs"):
            parse(["run", "--d", "2", "--noise", "nan,1"])

    def test_noise_length_error_names_field(self):
        with pytest.raises(ValidationError, match="noise.probs"):
            parse(["run", "--d", "3", "--noise", "0.5,0.5"])

    def test_dimension_too_small(self):
        with pytest.raises(ValidationError, match="d:"):
            parse(["run", "--d", "1"])
        with pytest.raises(ValidationError, match="d:"):
            parse(["run", "--d", "1", "--noise", "0.5,0.5"])

    def test_trials_must_be_positive(self):
        with pytest.raises(ValidationError, match="trials"):
            parse(["run", "--trials", "0"])

    def test_bad_state_spec(self):
        with pytest.raises(ValidationError, match="state"):
            parse(["run", "--state", "diagonal"])
        with pytest.raises(ValidationError, match="state"):
            parse(["run", "--d", "2", "--state", "basis:5"])

    def test_amp_list_state(self):
        config = parse(["run", "--d", "2", "--state", "0.6,0,0.8,0"])
        assert config.state == ((0.6, 0.0), (0.8, 0.0))
        np.testing.assert_allclose(config.psi0.amps, [0.6, 0.8], atol=1e-12)

    def test_amp_list_wrong_length(self):
        with pytest.raises(ValidationError, match="state"):
            parse(["run", "--d", "3", "--state", "0.6,0,0.8,0"])

    def test_amp_list_unnormalized(self):
        # refused when the config is built, before any command runs
        with pytest.raises(ValidationError, match=r"^state: amplitudes must be normalized"):
            parse(["run", "--d", "2", "--state", "1,0,1,0"])
        # a norm that overflows is reported as inf, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^state: .*\(norm inf\)"):
                parse(["run", "--d", "2", "--state", "1e308,0,1e308,0"])

    def test_json_amp_pairs(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"d": 2, "state": [[0.6, 0.0], [0.0, 0.8]]}))
        np.testing.assert_allclose(parse(["run", "--config", str(path)]).psi0.amps, [0.6, 0.8j], atol=1e-12)


class TestInitialState:
    def test_uniform(self):
        psi = parse(["run", "--d", "4"]).psi0
        np.testing.assert_allclose(psi.amps, np.full(4, 0.5), atol=1e-15)

    def test_basis(self):
        psi = parse(["run", "--d", "3", "--state", "basis:2"]).psi0
        np.testing.assert_array_equal(psi.amps, [0, 0, 1])

    def test_random_is_seed_reproducible(self):
        first = parse(["run", "--state", "random", "--seed", "5"]).psi0
        second = parse(["run", "--state", "random", "--seed", "5"]).psi0
        np.testing.assert_array_equal(first.amps, second.amps)
        other = parse(["run", "--state", "random", "--seed", "6"]).psi0
        assert np.max(np.abs(first.amps - other.amps)) > 1e-6

    def test_psi0_is_derived_and_not_compared(self):
        # each config builds its own psi0 object, so equality and hashing must ignore it
        config = parse(["run", "--state", "random", "--seed", "5"])
        again = parse(["run", "--state", "random", "--seed", "5"])
        assert config == again and hash(config) == hash(again)
        assert "psi0" not in repr(config)
        assert replace(config, trials=2).psi0.amps.tolist() == config.psi0.amps.tolist()
        with pytest.raises(TypeError):
            ExperimentConfig(chain=config.chain, trials=1, state="uniform", psi0=config.psi0)

    def test_random_state_stream_is_not_trial_0s(self, monkeypatch):
        first_doubles = []

        def recording_random_state(d, num_qudits, rng):
            first_doubles.append(copy.deepcopy(rng).random())
            return random_state(d, num_qudits, rng)

        monkeypatch.setattr(qrelay.cli, "random_state", recording_random_state)
        for master in (0, 1, 5, 123, 2**63 + 5, 2**64 - 1):
            parse(["run", "--state", "random", "--seed", str(master)])
            assert first_doubles.pop() != np.random.default_rng(master).random()


class TestCmdRun:
    def test_noiseless_report(self):
        argv = ["run", "--d", "2", "--n", "2", "--trials", "10", "--state", "random"]
        report = json.loads(cmd_run(parse(argv)))
        aggregate = report["aggregate"]
        assert aggregate["fidelity_min"] == pytest.approx(1.0, abs=1e-12)
        assert aggregate["fidelity_mean"] == pytest.approx(1.0, abs=1e-12)
        assert sum(aggregate["outcome_histogram"]) == 10 * 2
        assert len(report["trials"]) == 10
        for record in report["trials"]:
            assert len(record["results"]) == 2
            assert record["deferred_exponent"] == sum(record["results"]) % 2

    def test_local_mode_reports_no_deferred_exponent(self):
        report = json.loads(cmd_run(parse(["run", "--mode", "local", "--trials", "2"])))
        assert all(record["deferred_exponent"] is None for record in report["trials"])

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["run", "--d", "2", "--n", "2", "--noise", "0.8,0.2", "--trials", "50", "--seed", "3"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_history_csv(self, tmp_path):
        """Every --history row is run_chain's trial-0 snapshot within 1e-12, with equal r.

        Over d in {2, 3, 5, 16}, both modes, and noiseless, fixed Z^1 and stochastic noise.
        """
        history, n = tmp_path / "history.csv", 4
        cases = []
        for d in (2, 3, 5, 16):
            weights = np.random.default_rng(d).random(d)
            noises = [
                ",".join(["1"] + ["0"] * (d - 1)),
                ",".join(["0", "1"] + ["0"] * (d - 2)),
                ",".join(map(repr, (weights / weights.sum()).tolist())),
            ]
            cases += itertools.product([d], ["local", "deferred"], noises, [0, 5])
        for d, mode, noise, seed in cases:
            config = parse(["run", "--d", str(d), "--n", str(n), "--mode", mode, "--noise", noise, "--seed",
                            str(seed), "--state", "random", "--trials", "3", "--history", str(history)])
            report = json.loads(cmd_run(config))
            assert report["history_path"] == str(history)
            with open(history, newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows[0] == ["hop", "r", "amplitude_index", "re", "im"]
            assert len(rows) == 1 + d * (n + 1)  # header + d amplitudes per history entry
            oracle = run_chain(config.chain, config.psi0).history
            for hop, entry in enumerate(oracle):
                block = rows[1 + hop * d : 1 + (hop + 1) * d]
                assert [row[:3] for row in block] == [[str(hop), str(entry.r), str(j)] for j in range(d)]
                amps = np.array([complex(float(row[3]), float(row[4])) for row in block])
                assert np.max(np.abs(amps - entry.state.amps)) <= 1e-12
            # the CSV is trial 0's history, so its dits are the report's first trial
            assert [int(row[1]) for row in rows[1::d]] == [0] + report["trials"][0]["results"]

    @pytest.mark.parametrize(
        "d,n,noise",
        [(2, 1, "0.5,0.5"), (3, 4, "0.9,0.05,0.05"), (3, 2, "0,1,0"),
         (5, 3, "0.6,0.1,0.1,0.1,0.1"), (16, 8, ",".join(["0.0625"] * 16))],
    )
    def test_mean_fidelity_matches_exact_channel(self, d, n, noise):
        trials = 4000
        config = parse(["run", "--d", str(d), "--n", str(n), "--noise", noise,
                        "--trials", str(trials), "--seed", "12", "--state", "random"])
        fidelities = [record["fidelity"] for record in json.loads(cmd_run(config))["trials"]]
        exact = expected_fidelity(config.chain, config.psi0)
        sigma = np.std(fidelities) / math.sqrt(trials)
        # a deterministic channel gives every trial the same fidelity, so sigma is 0
        assert abs(np.mean(fidelities) - exact) <= 5 * sigma + 1e-12

    def test_fidelity_min_is_the_minimum_over_every_record(self):
        # trial 0 holds the run's unique minimum, F[1] = 0.0784 of (0.6, 0.8); the 19 others read 1.0
        argv = ["run", "--d", "2", "--n", "1", "--noise", "0.99,0.01", "--trials", "20", "--seed", "190",
                "--state", "0.6,0,0.8,0"]
        report = json.loads(cmd_run(parse(argv)))
        fidelities = [record["fidelity"] for record in report["trials"]]
        assert fidelities.index(min(fidelities)) == 0 and fidelities.count(min(fidelities)) == 1
        assert report["aggregate"]["fidelity_min"] == min(fidelities) == 0.07840000000000008

    def test_monte_carlo_matches_enumeration(self):
        # sampled outcome frequencies against the exact uniform path law
        trials = 10_000
        argv = ["run", "--d", "2", "--n", "2", "--trials", str(trials), "--seed", "1"]
        report = json.loads(cmd_run(parse(argv)))
        histogram = report["aggregate"]["outcome_histogram"]
        draws = trials * 2
        sigma = math.sqrt(draws * 0.5 * 0.5)
        assert abs(histogram[0] - draws / 2) < 5 * sigma


class TestCmdEnumerate:
    def test_exact_paths(self):
        report = json.loads(cmd_enumerate(parse(["enumerate", "--d", "2", "--n", "3"])))
        aggregate = report["aggregate"]
        assert aggregate["path_count"] == 8
        assert aggregate["probability_sum"] == pytest.approx(1.0, abs=1e-15)
        assert aggregate["fidelity_min"] == pytest.approx(1.0, abs=1e-12)
        for path in report["paths"]:
            assert path["probability"] == pytest.approx(1 / 8)
            assert len(path["final_state"]) == 2
            assert len(path["final_state"][0]) == 2

    def test_budget_exit_code(self, capsys):
        for n in ("8", "10000"):
            assert main(["enumerate", "--d", "3", "--n", n]) == 2
            assert capsys.readouterr().err.startswith(f"error: n: 3^{n} paths exceed the budget of 4096; ")

    def test_stochastic_noise_exit_code(self, capsys):
        assert main(["enumerate", "--d", "2", "--n", "2", "--noise", "0.5,0.5"]) == 1
        captured = capsys.readouterr()
        assert "error: noise.probs: enumeration requires a deterministic channel" in captured.err
        assert captured.out == ""

    # n per d: several chain lengths, at most 512 paths each
    @pytest.mark.parametrize(
        "d,ns",
        [(2, (1, 3, 6)), (3, (1, 2, 4)), (5, (1, 3)), (16, (1, 2))],
        ids=["d2", "d3", "d5", "d16"],
    )
    @pytest.mark.parametrize("mode", ["local", "deferred"])
    def test_matches_branch_oracle(self, d, ns, mode):
        for k in sorted({0, 1, d - 1}):
            noise = ",".join("1" if j == k else "0" for j in range(d))
            for n in ns:
                config = parse(["enumerate", "--d", str(d), "--n", str(n), "--mode", mode,
                                "--noise", noise, "--state", "random", "--seed", str(7 * n + k)])
                report = json.loads(cmd_enumerate(config))
                branches = enumerate_branches(config.chain, config.psi0)
                paths = report["paths"]
                assert [record["path"] for record in paths] == [list(b.path) for b in branches]
                for record, branch in zip(paths, branches):
                    assert record["probability"] == branch.probability
                    assert abs(record["fidelity"] - branch.fidelity) <= 1e-12
                    final = np.array([complex(re, im) for re, im in record["final_state"]])
                    assert np.max(np.abs(final - branch.final.amps)) <= 1e-12
                fidelities = [branch.fidelity for branch in branches]
                aggregate = report["aggregate"]
                assert aggregate["path_count"] == len(branches)
                assert aggregate["probability_sum"] == sum(branch.probability for branch in branches)
                assert abs(aggregate["fidelity_mean"] - np.mean(fidelities)) <= 1e-12
                assert abs(aggregate["fidelity_min"] - np.min(fidelities)) <= 1e-12


class TestMain:
    def test_commands_and_joint_register_leave_numpy_ma_unimported(self):
        """A bare np.unique imports numpy.ma (tens of ms and about a MB of RSS); no command or
        joint-register call may pay that. The child's last line shows that the probe sees it."""
        code = (
            "import contextlib, io, sys\n"
            "import numpy as np\n"
            "from qrelay import cli, full_register_chain, random_state\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['run', '--d', '3', '--n', '4', '--noise', '0.9,0.05,0.05', '--trials', '50']) == 0\n"
            "    assert cli.main(['enumerate', '--d', '3', '--n', '2', '--state', 'random']) == 0\n"
            "full_register_chain(3, 2, random_state(3, 1, np.random.default_rng(0)), [(1, 2), (0, 1)])\n"
            "print('numpy.ma' in sys.modules)\n"
            "np.unique([2, 1])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        child = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, check=True)
        assert child.stdout.split() == ["False", "True"]

    def test_run_writes_report_to_stdout(self, capsys):
        assert main(["run", "--d", "2", "--n", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "run"
        assert report["config"]["d"] == 2

    def test_repeated_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        # main reuses one parser; a usage error or a budget error must leave it as it was
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
        good = ["run", "--d", "3", "--n", "2", "--noise", "0.8,0.1,0.1", "--trials", "5"]
        for argv, expected in ((good, 0), (["run", "--trials"], 1), (["enumerate", "--d", "3", "--n", "8"], 2),
                               (good, 0)):
            fresh = subprocess.run([sys.executable, "-m", "qrelay", *argv], env={**SRC_ENV, "COLUMNS": "80"},
                                   capture_output=True, text=True)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (expected, fresh.stdout, fresh.stderr)
            assert fresh.returncode == expected

    def test_validation_exit_code(self, capsys, tmp_path):
        assert main(["run", "--d", "1"]) == 1
        assert "error:" in capsys.readouterr().err
        for command in ("run", "enumerate"):
            assert main([command, "--d", "2", "--n", "2", "--noise", "nan,1"]) == 1
            assert "noise.probs" in capsys.readouterr().err
        bad_values = [(key, True, key) for key in ("d", "n", "seed", "trials")]
        bad_values += [
            ("out", 5, "out"),
            ("history", 1, "history"),  # an int path would open that file descriptor
            ("noise", [0.5, "a"], "noise.probs"),
            ("noise", [True, False], "noise.probs"),
            ("noise", [10**400, 0], "noise.probs"),  # an int too large for a float
            ("state", [[1, 0], ["a", 0]], "state"),
            ("state", [[True, 0], [0, 0]], "state"),  # a JSON true is not the real 1.0, as it is not a probability
        ]
        for key, value, field in bad_values:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"d": 2, key: value}))
            assert main(["run", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert f"error: {field}:" in captured.err
            assert captured.out == ""
        # these print exactly one line, naming the field and the value
        exact = [
            ('{"out": 5}', "out: expected a file path string, got 5"),
            ('{"history": ["x"]}', "history: expected a file path string, got ['x']"),
            ('{"state": 5}', "state: unsupported value 5"),
            ("[1, 2]", "config: {path} must hold a JSON object"),
        ]
        path = tmp_path / "exact.json"
        for text, message in exact:
            path.write_text(text)
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"state": "caf\xe9"}')
        # json refuses an integer of more than 4300 digits with a plain ValueError
        long_int = tmp_path / "long_int.json"
        long_int.write_text('{"seed": 1' + "0" * 5000 + "}")
        for path in (str(not_utf8), str(long_int), str(tmp_path / "missing.json")):
            assert main(["run", "--config", path]) == 1
            assert "error: config:" in capsys.readouterr().err

    def test_trials_past_the_address_space_exit_2_naming_trials(self, capsys):
        # 10^13 trials of 3 hops ask for 720 TB of draws, past the 47-bit user address space,
        # so the allocation fails before any memory is touched; never test a count that might fit
        assert main(["run", "--trials", "10000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: trials: 10000000000000 trials of 3 hops need 720000000000000 bytes of draws, "
            "more than can be allocated\n"
        )
        assert captured.out == ""

    def test_config_file_mode_names_its_choices(self, capsys, tmp_path):
        path = tmp_path / "mode.json"
        for value in (5, None, ["local"], "bogus"):
            path.write_text(json.dumps({"mode": value}))
            assert main(["run", "--config", str(path)]) == 1
            assert capsys.readouterr().err == f"error: mode: expected 'local' or 'deferred', got {value!r}\n"

    def test_unwritable_output_path_fails_before_any_trial(self, capsys, monkeypatch, tmp_path):
        def no_trials(*args):
            raise AssertionError("trials ran before the output path was checked")

        monkeypatch.setattr(qrelay.cli, "run_trajectories", no_trials)
        monkeypatch.chdir(tmp_path)
        for key, flags in (("history", ["--history", "/nonexistent/h.csv"]),
                           ("out", ["--out", "/nonexistent/r.json"]),
                           ("out", ["--out", str(tmp_path)]),
                           # one file by two names: the report would overwrite the CSV
                           ("history", ["--out", "same.out", "--history", str(tmp_path / "same.out")]),
                           ("history", ["--out", "report.json", "--history", "linked.csv"])):
            if "linked.csv" in flags:
                (tmp_path / "report.json").write_text("kept")
                os.link(tmp_path / "report.json", tmp_path / "linked.csv")
            assert main(["run", "--d", "2", "--trials", "1000", *flags]) == 1
            captured = capsys.readouterr()
            assert f"error: {key}:" in captured.err
            assert captured.out == ""
        assert not (tmp_path / "same.out").exists()
        assert (tmp_path / "linked.csv").read_text() == "kept"
        # checking a writable path does not create the file
        history = tmp_path / "h.csv"
        assert parse(["run", "--history", str(history)]).history == str(history)
        assert not history.exists()

    def test_enumerate_rejects_run_only_fields(self, capsys, tmp_path):
        for flag in (["--trials", "50"], ["--history", str(tmp_path / "h.csv")]):
            with pytest.raises(SystemExit) as exc:
                main(["enumerate", "--d", "2", "--n", "2", *flag])
            assert exc.value.code == 1
            assert flag[0] in capsys.readouterr().err
        for key, value in (("trials", 50), ("history", str(tmp_path / "h.csv"))):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"d": 2, "n": 2, key: value}))
            assert main(["enumerate", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert f"error: {key}:" in captured.err
            assert captured.out == ""
        assert not (tmp_path / "h.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--d", "2", "--n", "3", "--mode", "local", "--noise", "0.8,0.2", "--trials", "7",
         "--seed", "5", "--state", "0.6,0,0,0.8"],
        ["enumerate", "--d", "3", "--n", "2", "--noise", "0,1,0", "--state", "random", "--seed", "4"],
    ])
    def test_config_echo_round_trips(self, tmp_path, argv):
        first, second, echo = tmp_path / "first.json", tmp_path / "second.json", tmp_path / "echo.json"
        assert main(argv + ["--out", str(first)]) == 0
        echo.write_text(json.dumps(json.loads(first.read_text())["config"]))
        assert main([argv[0], "--config", str(echo), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_usage_errors_exit_1_and_help_exits_0(self, capsys):
        # exit code 2 is reserved for an exceeded budget
        for argv in (["run", "--d", "x"], ["run", "--bogus"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert "usage: qrelay" in err and "error:" in err
        for argv in (["--help"], ["run", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            assert "usage: qrelay" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/config.json"]) == 1

    def test_module_entry_point_propagates_exit_code(self):
        for argv, code in ((["selftest"], 0), (["enumerate", "--d", "3", "--n", "8"], 2)):
            done = subprocess.run([sys.executable, "-m", "qrelay", *argv], env=SRC_ENV, capture_output=True)
            assert done.returncode == code, done.stderr

    def test_readme_command_block_runs_as_written(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
        assert commands and all(argv[0] == "qrelay" for argv in commands)

        def qrelay(argv):
            done = subprocess.run([sys.executable, "-m", "qrelay", *argv[1:]], cwd=tmp_path,
                                  env=SRC_ENV, capture_output=True)
            assert done.returncode == 0, (argv, done.stderr)
            return done.stdout

        for argv in commands:
            stdout = qrelay(argv)
            if argv[1] == "selftest":
                continue
            if "--out" in argv:
                at = argv.index("--out")
                written = (tmp_path / argv[at + 1]).read_bytes()
                assert written == qrelay(argv[:at] + argv[at + 2:])
                stdout = written
            assert json.loads(stdout)["command"] == argv[1]

    def test_readme_config_example_runs_as_written(self, capsys, tmp_path):
        readme = (ROOT / "README.md").read_text()
        path = tmp_path / "readme.json"
        path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
        assert main(["run", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == json.loads(path.read_text())

    def test_readme_library_block_runs_as_written(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert "import qrelay" in block
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=SRC_ENV, capture_output=True)
        assert done.returncode == 0, done.stderr

    def test_selftest_passes(self, capsys):
        start = time.monotonic()
        assert main(["selftest"]) == 0
        assert time.monotonic() - start < 60.0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(selftest.CHECKS)
        assert "FAIL" not in out


def corrupted_hadamard(d):
    """Fourier gate without its normalization; exists to fail the sweep."""
    return gates.GateMatrix(d, gates.hadamard(d).mat * np.sqrt(d))


def wrong_root_z(d):
    """A unitary diagonal Z on the root exp(2 pi i/(d+1)) in place of w."""
    return gates.GateMatrix(d, np.diag(np.exp(2j * np.pi * np.arange(d) / (d + 1))))


def non_cyclic_x(d):
    """A permutation that is not the d-cycle: |j> -> |(j+1) mod (d-1)> for j < d-1, fixing d-1."""
    image = [(j + 1) % (d - 1) for j in range(d - 1)] + [d - 1]
    return gates.GateMatrix(d, np.eye(d)[:, image])


GATE_ONLY_CHECKS = [
    "qutrit cnot golden matrix",
    "cnot direct sum equals basis permutation",
    "gate unitarity and commutation sweep",
]


def hop_circuit_without_ancilla_fourier(psi):
    d = psi.d
    state = gates.apply_2q(prepare_hop(psi), gates.cnot(d), 0, 2)
    return gates.apply_1q(state, gates.hadamard_inverse(d), 0)


def raise_index_error(*args):
    raise IndexError("register index out of range")


class TestSelftestNegativeControl:
    def test_corrupted_hadamard_fails_unitarity_sweep(self, monkeypatch):
        monkeypatch.setitem(selftest.GATE_CONSTRUCTORS, "hadamard", corrupted_hadamard)
        results = selftest.run_all()
        by_name = {check.name: check for check in results}
        sweep = by_name["gate unitarity and commutation sweep"]
        assert not sweep.passed
        assert "hadamard" in sweep.detail
        assert [check.name for check in results if not check.passed] == [sweep.name]

    def test_failing_selftest_exits_3_naming_the_check(self, capsys, monkeypatch):
        monkeypatch.setitem(selftest.GATE_CONSTRUCTORS, "hadamard", corrupted_hadamard)
        assert main(["selftest"]) == 3
        captured = capsys.readouterr()
        assert "\nFAIL gate unitarity and commutation sweep: hadamard(d=2): mat: gate must be unitary" in captured.out
        assert captured.err == "self-test failed: gate unitarity and commutation sweep\n"

    def test_the_sweep_takes_every_constructor_from_its_table(self):
        assert set(selftest.GATE_CONSTRUCTORS) == {
            "pauli_z", "pauli_x", "hadamard", "hadamard_inverse", "cnot", "cnot_dagger", "pauli_z_power",
        }
        assert selftest.check_unitarity_sweep() == (True, "")

    @pytest.mark.parametrize(
        "name, build, laws",
        [
            # both laws that involve Z fail at every d
            ("pauli_z", wrong_root_z, lambda d: [f"Z^{d} != I", "ZX != wXZ"]),
            # at d = 2 the permutation is the identity: X^2 = I holds, the Weyl law does not
            ("pauli_x", non_cyclic_x, lambda d: ["ZX != wXZ"] if d == 2 else [f"X^{d} != I", "ZX != wXZ"]),
            # Z^(d-1) = Z^-1 is cyclic, but Z^-1 X = w^-1 X Z^-1, which is wXZ only at d = 2
            ("pauli_z", lambda d: gates.pauli_z_power(d, d - 1), lambda d: [] if d == 2 else ["ZX != wXZ"]),
        ],
        ids=["wrong-root-z", "non-cyclic-x", "inverse-z"],
    )
    def test_a_broken_law_fails_by_name(self, monkeypatch, name, build, laws):
        monkeypatch.setitem(selftest.GATE_CONSTRUCTORS, name, build)
        passed, detail = selftest.check_unitarity_sweep()
        assert not passed
        assert detail == "; ".join(f"{law} for d={d}" for d in range(2, 17) for law in laws(d))

    @pytest.mark.parametrize(
        "patches, failure",
        [
            (
                [("qrelay.teleport.hop_circuit", hop_circuit_without_ancilla_fourier),
                 ("qrelay.selftest.hop_circuit", hop_circuit_without_ancilla_fourier)],
                "FAIL corrected hop returns the input exactly: "
                "ImpossibleOutcomeError: forced: outcome 1 on qudit 1 has probability 0.000e+00",
            ),
            (
                [("qrelay.selftest.full_register_chain", raise_index_error)],
                "FAIL joint register matches psi and the factorized chain: IndexError: register index out of range",
            ),
        ],
        ids=["hop-circuit-without-ancilla-fourier", "joint-register-raises"],
    )
    def test_a_raising_check_is_a_fail_with_exit_3(self, capsys, monkeypatch, patches, failure):
        for target, replacement in patches:
            monkeypatch.setattr(target, replacement)
        assert main(["selftest"]) == 3
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split(" ", 1)[0] in ("PASS", "FAIL") for line in lines] == [True] * 9
        assert failure in lines
        for name in GATE_ONLY_CHECKS:
            assert f"PASS {name}" in lines
        failed = [line.split(" ", 1)[1].split(":", 1)[0] for line in lines if line.startswith("FAIL ")]
        assert captured.err == f"self-test failed: {', '.join(failed)}\n"

    def test_an_interrupt_is_not_a_fail(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(qrelay.selftest, "full_register_chain", interrupt)
        with pytest.raises(KeyboardInterrupt):
            selftest.run_all()

    @pytest.mark.parametrize(
        "command, key, detail",
        [
            ("cmd_run", "trials", "local run lists 5 trials, not 6; deferred run lists 5 trials, not 6"),
            (
                "cmd_enumerate",
                "paths",
                "local enumerate lists 8 paths, the oracle 9; deferred enumerate lists 8 paths, the oracle 9",
            ),
        ],
    )
    def test_a_dropped_record_fails_the_oracle_check(self, monkeypatch, command, key, detail):
        render = getattr(qrelay.selftest, command)

        def drop_last_record(config):
            report = json.loads(render(config))
            report[key].pop()
            return json.dumps(report)

        monkeypatch.setattr(qrelay.selftest, command, drop_last_record)
        assert selftest.check_engines_match_oracles() == (False, detail)

    def test_wrong_joint_register_fails_its_check(self, monkeypatch):
        joint = qrelay.selftest.full_register_chain

        def off_by_one_phase(d, n, psi, path, mode):
            result = joint(d, n, psi, path, mode)
            return replace(result, final=qrelay.gates.apply_1q(result.final, qrelay.gates.pauli_z(d), 0))

        monkeypatch.setattr(qrelay.selftest, "full_register_chain", off_by_one_phase)
        passed, detail = selftest.check_joint_register()
        assert not passed
        assert "d=2 local" in detail

    def test_an_error_of_1e9_fails_the_joint_register_check(self, monkeypatch):
        # the self-test's bound is 1e-12; a final state off by 1e-9 in one amplitude must not pass
        joint = qrelay.selftest.full_register_chain

        def off_by_1e9(d, n, psi, path, mode):
            result = joint(d, n, psi, path, mode)
            amps = result.final.amps.copy()
            amps[0] += 1e-9
            return replace(result, final=qrelay.core.PureState._trusted(d, 1, amps))

        monkeypatch.setattr(qrelay.selftest, "full_register_chain", off_by_1e9)
        passed, detail = selftest.check_joint_register()
        assert not passed
        assert [failure.split(" path ")[0] for failure in detail.split("; ")] == [
            f"d={d} {mode}" for d in (2, 3, 4, 5, 16, 16) for mode in ("local", "deferred")
        ]

    def test_joint_register_check_reaches_the_paper_chain(self, monkeypatch):
        # a register that goes wrong only past 2 hops at d = 16 is caught by the n = 100 run
        joint = qrelay.selftest.full_register_chain

        def wrong_after_two_hops(d, n, psi, path, mode):
            result = joint(d, n, psi, path, mode)
            if d == 16 and n > 2:
                result = replace(result, boundary_entropies=(*result.boundary_entropies[:-1], 1.0))
            return result

        monkeypatch.setattr(qrelay.selftest, "full_register_chain", wrong_after_two_hops)
        passed, detail = selftest.check_joint_register()
        assert not passed
        assert [failure.split(" path ")[0] for failure in detail.split("; ")] == ["d=16 local", "d=16 deferred"]

    def test_wrong_closed_form_fails_oracle_check(self, monkeypatch):
        # run and enumerate both read F[K] from the table cmd_run and cmd_enumerate build
        table = qrelay.chain.fidelity_table
        monkeypatch.setattr(qrelay.cli, "fidelity_table", lambda psi: table(psi)[::-1])
        passed, detail = selftest.check_engines_match_oracles()
        assert not passed
        assert "run trial" in detail
        assert "enumerate path" in detail

    def test_dropped_deferred_exponent_fails_oracle_check(self, monkeypatch):
        engine = qrelay.chain.run_trajectories
        monkeypatch.setattr(
            qrelay.cli, "run_trajectories", lambda *args: replace(engine(*args), deferred_exponents=None)
        )
        passed, detail = selftest.check_engines_match_oracles()
        assert not passed
        assert "deferred run trial 0" in detail
        assert "local run" not in detail


# the sha256 prefix of each report's canonical JSON value, as the indent-2 layout gave it
REPORT_VALUES = {
    "run --d 3 --n 4 --mode deferred --noise 0.9,0.05,0.05 --trials 1000 --seed 7 --state uniform":
        "e16c529f0bc025af",
    "run --d 2 --n 2 --history history.csv": "1dc096b9253977fc",
    "enumerate --d 2 --n 3": "62a73daf6d8cc5ef",
    "run --d 5 --n 6 --mode local --noise 0.6,0.1,0.1,0.1,0.1 --trials 50 --seed 3 --state random":
        "c304a50c51b602bd",
    "enumerate --d 8 --n 4 --mode local --seed 1 --state random": "61ee1bf1242794f2",
    # an odd d with no quadrant roots: F[K] and F[d-K] must come out equal on every host
    "run --d 5 --n 3 --noise 0.8,0.05,0.05,0.05,0.05 --trials 200 --seed 3 --state random": "aa8a1b1ee250e5d6",
    "enumerate --d 8 --n 4": "38c80da98b6782f9",
    # two-character digits and an odd n: the records are split into fronts and backs unevenly
    "enumerate --d 16 --n 3": "8a4b9bb8af8e86a7",
}
# the sha256 prefix of the same commands' exact stdout bytes
REPORT_BYTES = dict(zip(REPORT_VALUES, [
    "f9f93d9ee8e1d887", "e53198e428544587", "ebb3837a59e0df11", "9c420f8eeaf537bc", "b9e30f45cd72a878",
    "a23e747b86e97893", "e0e85bbf6a041249", "cf7b7048711417dc",
]))
# the sha256 prefix of the trial-0 history CSV each command writes to history.csv
HISTORY_BYTES = {
    "run --d 2 --n 2 --history history.csv": "6dbbf089d73c0467",
    "run --d 5 --n 6 --mode local --noise 0.6,0.1,0.1,0.1,0.1 --seed 3 --state random --history history.csv":
        "41a4d8b90032aeb3",
    # the README's run in both modes
    "run --d 3 --n 4 --mode deferred --noise 0.9,0.05,0.05 --trials 1000 --seed 7 --state uniform --history history.csv":
        "4207823e94c99b71",
    "run --d 3 --n 4 --mode local --noise 0.9,0.05,0.05 --trials 1000 --seed 7 --state uniform --history history.csv":
        "b7a9fa3824a7a3bf",
}


def _not_dynamic_openblas() -> str | None:
    """Why OPENBLAS_CORETYPE cannot pick numpy's BLAS kernel here, or None if it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if "openblas" not in blas.get("name", "") or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name')}) is not a DYNAMIC_ARCH OpenBLAS, so no kernel can be forced"
    return None


NOT_DYNAMIC_OPENBLAS = _not_dynamic_openblas()


# Run in a child: each command given as an argument through qrelay.cli.main, once to stdout and
# once with --out, then the self-test. Prints the sha256 prefixes of stdout, of the --out file
# and of history.csv (null if none was written), and the self-test's exit code and output.
KERNEL_CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from qrelay import selftest
from qrelay.cli import main

def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]

def run(call):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = call()
    return code, stdout.getvalue()

digests = {}
for command in sys.argv[1:]:
    argv = command.split()
    code, text = run(lambda: main(argv))
    out_code, _ = run(lambda: main([*argv, "--out", "out.json"]))
    assert code == out_code == 0, command
    history = Path("history.csv")
    csv_bytes = digest(history.read_bytes()) if history.exists() else None
    history.unlink(missing_ok=True)
    digests[command] = [digest(text.encode()), digest(Path("out.json").read_bytes()), csv_bytes]
code, text = run(selftest.main)
print(json.dumps({"digests": digests, "selftest": code, "selftest_output": text}))
"""


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# the record-by-record renderer that the column-wise one replaced, kept as its reference
def reference_trial_records(batch, table) -> list[str]:
    def dit_lists(dits):
        return json.dumps(dits.tolist(), separators=(",", ":"))[2:-2].split("],[")

    if batch.deferred_exponents is None:
        deferred = itertools.repeat("null")
    else:
        deferred = map(str, batch.deferred_exponents.tolist())
    fidelities = table[batch.phase_exponents].tolist()
    rows = zip(deferred, fidelities, dit_lists(batch.noise_exponents), dit_lists(batch.results))
    return [
        f'{{"deferred_exponent":{exponent},"fidelity":{fidelity!r},'
        f'"noise_exponents":[{noise}],"results":[{results}],"trial":{index}}}'
        for index, (exponent, fidelity, noise, results) in enumerate(rows)
    ]


def python_z_power_pairs(psi0, k) -> list[list[float]]:
    """Z^k psi0 as [re, im] pairs from Python's complex product, not the BLAS kernel."""
    return [[a.real, a.imag] for a in python_product(gates.pauli_z_power(psi0.d, k), psi0.amps)]


def reference_path_records(config) -> list[str]:
    chain = config.chain
    psi0 = config.psi0
    exponent = chain.n * chain.noise.deterministic_exponent() % chain.d
    fid = float(fidelity_table(psi0)[exponent])
    final_pairs = python_z_power_pairs(psi0, exponent)
    head = json.dumps({"fidelity": fid, "final_state": final_pairs}, separators=(",", ":"))[:-1] + ',"path":['
    tail = f'],"probability":{1.0 / chain.d**chain.n!r}}}'
    digits = [str(j) for j in range(chain.d)]
    return [head + ",".join(path) + tail for path in itertools.product(digits, repeat=chain.n)]


def reference_report(text: str, key: str, records: list[str]) -> str:
    """`text`'s report with its `key` list rendered record by record."""
    report = json.loads(text)
    del report[key]
    placeholder = f'\n  "{key}": []'
    head, tail = json.dumps({**report, key: []}, indent=2, sort_keys=True).split(placeholder)
    return f'{head}\n  "{key}": [\n    ' + ",\n    ".join(records) + f"\n  ]{tail}\n"


def assert_same_text(text: str, expected: str, context: object = "") -> None:
    """text == expected, failing with the first differing line rather than a diff of the whole report."""
    if text != expected:
        got, want = text.split("\n"), expected.split("\n")
        index = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"line {index}: got {got[index : index + 1]}, expected {want[index : index + 1]} {context}")


class TestReportRendering:
    @pytest.mark.parametrize("command", REPORT_VALUES, ids=["run-readme", "run-history", "enumerate-readme",
                                                            "run-local-d5", "enumerate-d8", "run-d5",
                                                            "enumerate-d8-uniform", "enumerate-d16"])
    def test_value_pinned_and_one_compact_record_per_line(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)  # --history history.csv is a relative path
        assert main(command.split()) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == REPORT_BYTES[command], command
        report = json.loads(text)
        assert hashlib.sha256(canonical(report).encode()).hexdigest()[:16] == REPORT_VALUES[command], command
        records = report["trials" if report["command"] == "run" else "paths"]
        lines = [line[4:].removesuffix(",") for line in text.splitlines() if line.startswith("    {")]
        assert len(lines) == len(records)
        for line in lines:
            assert line == canonical(json.loads(line))

    @pytest.mark.parametrize("command", HISTORY_BYTES, ids=["run-history", "run-local-d5", "run-readme-deferred",
                                                         "run-readme-local"])
    def test_history_csv_bytes_pinned(self, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)
        assert main(command.split()) == 0
        csv_bytes = hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest()[:16]
        assert csv_bytes == HISTORY_BYTES[command], command

    @pytest.mark.parametrize("command", dict.fromkeys([*REPORT_BYTES, *HISTORY_BYTES]))
    def test_pinned_bytes_need_no_gate_kernel(self, capsys, monkeypatch, tmp_path, command):
        # run, run --history in both modes and enumerate build Z^K psi0 in closed form
        def no_kernel(*args):
            raise AssertionError("the state-vector gate kernel ran")

        monkeypatch.setattr(qrelay.gates, "_apply", no_kernel)
        monkeypatch.chdir(tmp_path)
        assert main(command.split()) == 0
        stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
        assert stdout == REPORT_BYTES.get(command, stdout)
        if command in HISTORY_BYTES:
            assert hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest()[:16] == HISTORY_BYTES[command]

    @pytest.mark.skipif(NOT_DYNAMIC_OPENBLAS is not None, reason=str(NOT_DYNAMIC_OPENBLAS))
    def test_pinned_bytes_do_not_depend_on_the_openblas_kernel(self, tmp_path):
        """Every pinned command and the self-test, in one child per OpenBLAS kernel.

        OPENBLAS_CORETYPE is set in each child's environment only. Haswell
        and Prescott are what AVX2-only or older hosts select, and SkylakeX
        what AVX-512 hosts select (OpenBLAS falls back where the CPU lacks it).
        Each child has its own PYTHONHASHSEED and runs with warnings as errors.
        """
        commands = list(dict.fromkeys([*REPORT_BYTES, *HISTORY_BYTES]))
        digests = {}
        for seed, kernel in enumerate(("Prescott", "Haswell", "SkylakeX"), start=1):
            cwd = tmp_path / kernel
            cwd.mkdir()
            env = {**SRC_ENV, "OPENBLAS_CORETYPE": kernel, "PYTHONHASHSEED": str(seed)}
            child = subprocess.run([sys.executable, "-W", "error", "-c", KERNEL_CHILD, *commands], cwd=cwd, env=env,
                                   capture_output=True, text=True)
            assert child.returncode == 0, (kernel, child.stderr)
            result = json.loads(child.stdout)
            assert result["selftest"] == 0, (kernel, result["selftest_output"])
            digests[kernel] = result["digests"]
        for command in commands:
            per_kernel = {kernel: tuple(found[command]) for kernel, found in digests.items()}
            assert len(set(per_kernel.values())) == 1, (command, per_kernel)
            stdout, out, csv_bytes = per_kernel["Prescott"]
            assert out == stdout == REPORT_BYTES.get(command, stdout), command
            assert csv_bytes == HISTORY_BYTES.get(command), command

    @pytest.mark.parametrize("d", [2, 3, 10, 11, 16])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("mode", ["local", "deferred"])
    def test_run_matches_reference_renderer(self, monkeypatch, d, n, mode):
        # every noise exponent and, from a random state, d distinct fidelities
        noise = ",".join(["0.5"] + [repr(0.5 / (d - 1))] * (d - 1))
        for trials in (1, 9, 10, 11, 4097):
            config = parse(["run", "--d", str(d), "--n", str(n), "--mode", mode, "--noise", noise,
                            "--trials", str(trials), "--seed", str(trials), "--state", "random"])
            batch = run_trajectories(config.chain, trials)
            records = reference_trial_records(batch, fidelity_table(config.psi0))
            for block_rows in (1, 7, qrelay.cli.RECORD_BLOCK_ROWS):
                with monkeypatch.context() as patch:
                    patch.setattr(qrelay.cli, "RECORD_BLOCK_ROWS", block_rows)
                    text = cmd_run(config)
                assert_same_text(text, reference_report(text, "trials", records), (trials, block_rows))

    @pytest.mark.parametrize("d,n,k", [(16, 3, 5), (2, 1, 1)])
    def test_enumerate_matches_reference_renderer(self, d, n, k):
        noise = ",".join("1" if j == k else "0" for j in range(d))
        config = parse(["enumerate", "--d", str(d), "--n", str(n), "--noise", noise,
                        "--state", "random", "--seed", "4"])
        text = cmd_enumerate(config)
        assert_same_text(text, reference_report(text, "paths", reference_path_records(config)))

    @pytest.mark.parametrize(
        "d,n", [(2, 1), (2, 3), (2, 12), (3, 1), (3, 5), (3, 7), (10, 1), (10, 3), (16, 1), (16, 3)]
    )
    def test_enumerate_matches_naive_json_records(self, d, n):
        # n = 1, an odd n, and the largest n within the 4096-path budget; d = 10 and 16 have two-character digits
        noise = ",".join("1" if j == d - 1 else "0" for j in range(d))
        config = parse(["enumerate", "--d", str(d), "--n", str(n), "--noise", noise, "--state", "random", "--seed", "8"])
        psi0 = config.psi0
        exponent = n * (d - 1) % d
        shared = {
            "fidelity": float(fidelity_table(psi0)[exponent]),
            "final_state": python_z_power_pairs(psi0, exponent),
            "probability": 1.0 / d**n,
        }
        records = [canonical({**shared, "path": list(path)}) for path in itertools.product(range(d), repeat=n)]
        text = cmd_enumerate(config)
        assert_same_text(text, reference_report(text, "paths", records))

    def test_sorted_and_stable(self):
        # the record list sorts among the top-level keys and holds one record per line
        body = ['{"x":1}', qrelay.cli.RECORD_SEPARATOR, '{"x":[2,3]}']
        text = render_report({"b": 1, "a": {"d": 2, "c": [1.5]}}, "ab", body)
        assert text == (
            '{\n  "a": {\n    "c": [\n      1.5\n    ],\n    "d": 2\n  },\n'
            '  "ab": [\n    {"x":1},\n    {"x":[2,3]}\n  ],\n  "b": 1\n}\n'
        )

    def test_records_go_under_the_top_level_key_only(self):
        # a nested key of that name, or a string value that spells its line, is left alone
        report = {"a": {"ab": []}, "b": '\n  "ab": []'}
        assert json.loads(render_report(report, "ab", ['{"x":1}'])) == {**report, "ab": [{"x": 1}]}

    def test_numpy_integer_config_gives_the_int_report(self):
        from qrelay.chain import ChainConfig, NoiseSpec

        def experiment(cast, trials):
            noise = NoiseSpec((0.0, 1.0, 0.0))
            mode = CorrectionMode.LOCAL_EACH_HOP
            chain = ChainConfig(d=cast(3), n=cast(2), mode=mode, noise=noise, seed=cast(5))
            return ExperimentConfig(chain=chain, trials=None if trials is None else cast(trials), state="random")

        numpy = experiment(np.uint64, 4)
        chain = numpy.chain
        assert {type(value) for value in (chain.d, chain.n, chain.seed, numpy.trials)} == {int}
        assert cmd_run(numpy) == cmd_run(experiment(int, 4))
        assert cmd_enumerate(experiment(np.int64, None)) == cmd_enumerate(experiment(int, None))

    def test_experiment_config_validates_on_build(self):
        from qrelay.chain import ChainConfig, NoiseSpec

        chain = ChainConfig(d=2, n=1, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(2), seed=0)
        assert ExperimentConfig(chain=chain, trials=1, state="uniform").chain is chain
        with pytest.raises(ValidationError, match="trials:"):
            ExperimentConfig(chain=chain, trials=0, state="uniform")
        with pytest.raises(ValidationError, match="out:"):
            ExperimentConfig(chain=chain, trials=1, state="uniform", out=5)

    @pytest.mark.parametrize(
        "d,state",
        [(3, "garbage"), (3, "uniform "), (3, "basis:7"), (3, "basis:x"), (3, ((1.0, 0.0),)),
         # zero and non-finite amplitudes are refused on build, not when a command runs
         (3, ((0.0, 0.0),) * 3), (3, ((math.inf, 0.0), (0.0, 0.0), (0.0, 0.0))),
         (3, ((True, 0), (0, 0), (0, 0))), (3, ((10**400, 0), (0, 0), (0, 0))),
         # one spelling per basis state, as str(j) writes j
         (16, "basis:+1"), (16, "basis: 1"), (16, "basis:1 "), (16, "basis:01"), (16, "basis:1_0"),
         (16, "basis:-0"), (16, "basis:\u0661"), (16, "basis:")],
        ids=["garbage", "uniform-space", "basis-7", "basis-x", "one-pair", "zero", "inf", "bool", "huge-int",
             "basis-plus", "basis-space", "basis-trailing-space", "basis-zero-padded", "basis-underscore",
             "basis-minus-zero", "basis-arabic-indic-digit", "basis-empty"],
    )
    def test_experiment_config_checks_state_on_build(self, d, state):
        from qrelay.chain import ChainConfig, NoiseSpec

        chain = ChainConfig(d=d, n=1, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(d), seed=0)
        with pytest.raises(ValidationError, match="^state: "):
            ExperimentConfig(chain=chain, trials=1, state=state)


# every field a refusal may name; `qrelay run` and `qrelay enumerate` read no other input
KNOWN_FIELDS = {"config", "d", "n", "mode", "noise.probs", "seed", "state", "trials", "out", "history"}
ODD_INT = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=True), st.integers(max_value=0), st.just(2**64),
    st.sampled_from(["3", "+3", " 3", "03", "3_0", "0x3", "3.0"]), st.lists(st.integers(0, 3), max_size=2),
)
BASIS_INDEX_TEXT = st.one_of(
    st.integers(0, 17).map(str), st.sampled_from(["+1", " 1", "1 ", "01", "1_0", "-0", "1.0", "", "x", "\u0661"])
)
AMPLITUDE_TEXT = st.one_of(
    st.sampled_from(["0", "1", "0.6", "0.8", "+1", " 1", "1_0", "nan", "-inf", "1e400", "x", ""]),
    st.floats().map(repr),
)
AMPLITUDE_PART = st.one_of(
    st.integers(-1, 1), st.floats(), st.booleans(), st.none(), st.just(10**400), st.sampled_from(["0.6", "x"]),
    st.lists(st.integers(0, 1), max_size=2),
)
STATE_TEXT = st.one_of(
    st.sampled_from(["uniform", "random", "Uniform", "uniform ", "", ",", "1,0,0,0", "0.6,0,0,0.8", "1,0,0,0,0,0"]),
    BASIS_INDEX_TEXT.map("basis:".__add__),
    st.lists(AMPLITUDE_TEXT, max_size=6).map(",".join),
)
STATE_VALUE = st.one_of(
    STATE_TEXT,
    st.sampled_from([[[1, 0], [0, 0]], [[0.6, 0], [0, 0.8]], [], {}, None]),
    st.lists(st.lists(AMPLITUDE_PART, max_size=3), max_size=4),
    st.lists(st.lists(st.lists(AMPLITUDE_PART, max_size=2), max_size=2), max_size=3),
)
ODD_NOISE = st.one_of(
    st.booleans(), st.floats(), st.integers(), st.just({}), st.sampled_from(["", "x", "1,0,x", "nan,1"]),
    st.lists(st.one_of(st.booleans(), st.just(math.nan), st.floats(-1, -1e-9), st.sampled_from(["x", "1"])),
             max_size=4),
    st.lists(st.lists(st.floats(0, 1), max_size=2), max_size=3),
    st.integers(0, 17).map(lambda count: [1 / max(count, 1)] * count),  # a count that may not be d
)
ODD_MODE = st.one_of(st.sampled_from(["LOCAL", "Deferred", "local ", "", None, 1, 0, True, {}]),
                     st.lists(st.sampled_from(["local", "deferred"]), max_size=2))
# n and trials are small when valid: a large valid count really allocates
ODD_VALUES = {"d": st.one_of(ODD_INT, st.just(17)), "n": ODD_INT, "trials": ODD_INT, "seed": ODD_INT,
              "state": STATE_VALUE, "noise": ODD_NOISE, "mode": ODD_MODE}


def pick(*strategies):
    """A value from one of `strategies`, each chosen equally often; list one twice to weight it."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def unit_pairs(d):
    """Basis state j of dimension d as [re, im] pairs, the part at k (if k < 2d) spelled
    by a JSON value that is not a real."""
    one, zero = st.sampled_from([1, 1.0, "1", " 1"]), st.sampled_from([0, 0.0, -0.0, "0"])
    odd = st.sampled_from([True, False, None, 10**400, "x", [1]])

    def spelled(j, k):
        return st.tuples(*[odd if i == k else one if i == 2 * j else zero for i in range(2 * d)])

    parts = st.tuples(st.integers(0, d - 1), st.integers(0, 2 * d)).flatmap(lambda jk: spelled(*jk))
    return parts.map(lambda parts: [list(parts[i : i + 2]) for i in range(0, 2 * d, 2)])


def has_bool(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, bool) or isinstance(value, list) and any(map(has_bool, value))


def noise_probs(d):
    """d probabilities of a Z^k channel: a one-hot, the exact uniform law or normalized weights."""
    weights = st.lists(st.floats(0.01, 1), min_size=d, max_size=d).map(lambda w: [x / sum(w) for x in w])
    one_hot = st.integers(0, d - 1).flatmap(
        lambda k: st.sampled_from([[int(j == k) for j in range(d)], [float(j == k) for j in range(d)]])
    )
    return pick(one_hot, one_hot, st.just([1 / d] * d), weights)


@st.composite
def config_files(draw, command="run"):
    """A valid config for `command`, as the README's grammar gives it, with some keys
    left out and at most one key given an odd value. `enumerate` has no trials, and
    draws n = 4 often, so that d >= 9 reaches its path budget."""
    d = draw(st.integers(2, 16))
    config = {
        "d": d,
        "n": draw(st.integers(1, 4) if command == "run" else pick(st.integers(1, 4), st.just(4))),
        "trials": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "state": draw(pick(
            st.sampled_from(["uniform", "random"]), st.integers(0, d - 1).map("basis:{}".format),
            BASIS_INDEX_TEXT.map("basis:".__add__), unit_pairs(d), unit_pairs(d),
        )),
        "noise": draw(noise_probs(d)),
        "mode": draw(st.sampled_from(["local", "deferred"])),
    }
    if command != "run":
        del config["trials"]
    for key in draw(st.sets(st.sampled_from([key for key in config if key != "d"]))):
        del config[key]
    odd = draw(st.sampled_from([None, *(key for key in ODD_VALUES if command == "run" or key != "trials")]))
    if odd is not None:
        config[odd] = draw(ODD_VALUES[odd])
    return config


class TestInputBoundary:
    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, path, command, config, state):
        """Every input ends in a report whose config echo gives the same bytes again, or in
        exit 1 or 2 with `error: <field>:`; an uncaught exception fails the example."""
        path.write_text(json.dumps(config))
        argv = [command, "--config", str(path)] + ([] if state is None else [f"--state={state}"])
        code, out, err = self.run(argv)
        if code == 0:
            # booleans are never numbers, and the echo spells the state one way only
            assert not has_bool({**config, "state": config.get("state") if state is None else state})
            echo = json.loads(out)["config"]
            d, echoed = echo["d"], echo["state"]
            assert echoed in ("uniform", "random", *(f"basis:{j}" for j in range(d))) or (
                len(echoed) == d and all(list(map(type, pair)) == [float, float] for pair in echoed)
            )
            path.write_text(json.dumps(echo))
            assert self.run([command, "--config", str(path)]) == (0, out, "")
        else:
            assert code in (1, 2) and out == ""
            field = re.match(r"error: ([\w.]+): ", err)
            assert field and field.group(1) in KNOWN_FIELDS, err

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(config=config_files(), state=pick(st.none(), st.none(), st.none(), STATE_TEXT))
    def test_run_reports_or_names_the_field(self, tmp_path_factory, config, state):
        self.check(tmp_path_factory.getbasetemp() / "boundary.json", "run", config, state)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(config=config_files("enumerate"), state=pick(st.none(), st.none(), st.none(), STATE_TEXT))
    def test_enumerate_reports_or_names_the_field(self, tmp_path_factory, config, state):
        # n <= 4, so d >= 9 with n = 4 reaches the path budget's refusal, which names n
        self.check(tmp_path_factory.getbasetemp() / "boundary.json", "enumerate", config, state)
