import copy
import csv
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qrelay.chain
import qrelay.cli
from qrelay import selftest
from qrelay.chain import enumerate_branches, expected_fidelity
from qrelay.cli import (
    ExperimentConfig,
    build_parser,
    cmd_enumerate,
    cmd_run,
    initial_state,
    main,
    parse_config,
    render_report,
)
from qrelay.core import ValidationError, random_state
from qrelay.teleport import CorrectionMode


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
        psi = initial_state(config)
        np.testing.assert_allclose(psi.amps, [0.6, 0.8], atol=1e-12)

    def test_amp_list_wrong_length(self):
        with pytest.raises(ValidationError, match="state"):
            parse(["run", "--d", "3", "--state", "0.6,0,0.8,0"])

    def test_amp_list_unnormalized(self):
        config = parse(["run", "--d", "2", "--state", "1,0,1,0"])
        with pytest.raises(ValidationError, match="state"):
            initial_state(config)
        # a norm that overflows is reported as inf, without a numpy warning
        config = parse(["run", "--d", "2", "--state", "1e308,0,1e308,0"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"^state: .*\(norm inf\)"):
                initial_state(config)

    def test_json_amp_pairs(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps({"d": 2, "state": [[0.6, 0.0], [0.0, 0.8]]}))
        config = parse(["run", "--config", str(path)])
        psi = initial_state(config)
        np.testing.assert_allclose(psi.amps, [0.6, 0.8j], atol=1e-12)


class TestInitialState:
    def test_uniform(self):
        psi = initial_state(parse(["run", "--d", "4"]))
        np.testing.assert_allclose(psi.amps, np.full(4, 0.5), atol=1e-15)

    def test_basis(self):
        psi = initial_state(parse(["run", "--d", "3", "--state", "basis:2"]))
        np.testing.assert_array_equal(psi.amps, [0, 0, 1])

    def test_random_is_seed_reproducible(self):
        first = initial_state(parse(["run", "--state", "random", "--seed", "5"]))
        second = initial_state(parse(["run", "--state", "random", "--seed", "5"]))
        np.testing.assert_array_equal(first.amps, second.amps)
        other = initial_state(parse(["run", "--state", "random", "--seed", "6"]))
        assert np.max(np.abs(first.amps - other.amps)) > 1e-6

    def test_random_state_stream_is_not_trial_0s(self, monkeypatch):
        first_doubles = []

        def recording_random_state(d, num_qudits, rng):
            first_doubles.append(copy.deepcopy(rng).random())
            return random_state(d, num_qudits, rng)

        monkeypatch.setattr(qrelay.cli, "random_state", recording_random_state)
        for master in (0, 1, 5, 123, 2**63 + 5, 2**64 - 1):
            initial_state(parse(["run", "--state", "random", "--seed", str(master)]))
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
        history = tmp_path / "history.csv"
        report = json.loads(cmd_run(parse(["run", "--d", "3", "--n", "2", "--history", str(history)])))
        assert report["history_path"] == str(history)
        with open(history, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["hop", "r", "amplitude_index", "re", "im"]
        assert len(rows) == 1 + 3 * (2 + 1)  # header + d amplitudes per history entry
        first = rows[1]
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"
        assert float(first[3]) == pytest.approx(1 / math.sqrt(3))
        # the CSV is trial 0's history, so its dits are the report's first trial
        dits = [int(row[1]) for row in rows[1::3]]
        assert dits == [0] + report["trials"][0]["results"]

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
        exact = expected_fidelity(config.chain, initial_state(config))
        sigma = np.std(fidelities) / math.sqrt(trials)
        # a deterministic channel gives every trial the same fidelity, so sigma is 0
        assert abs(np.mean(fidelities) - exact) <= 5 * sigma + 1e-12

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
            assert f"3^{n} paths exceed the budget" in capsys.readouterr().err

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
                branches = enumerate_branches(config.chain, initial_state(config))
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
    def test_run_writes_report_to_stdout(self, capsys):
        assert main(["run", "--d", "2", "--n", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "run"
        assert report["config"]["d"] == 2

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
            ("state", [[1, 0], ["a", 0]], "state"),
        ]
        for key, value, field in bad_values:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"d": 2, key: value}))
            assert main(["run", "--config", str(path)]) == 1
            captured = capsys.readouterr()
            assert f"error: {field}:" in captured.err
            assert captured.out == ""
        not_utf8 = tmp_path / "latin1.json"
        not_utf8.write_bytes(b'{"state": "caf\xe9"}')
        for path in (str(not_utf8), str(tmp_path / "missing.json")):
            assert main(["run", "--config", path]) == 1
            assert "error: config:" in capsys.readouterr().err

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
        assert out.count("PASS") == len(selftest.run_all())
        assert "FAIL" not in out


class TestSelftestNegativeControl:
    def test_corrupted_hadamard_fails_unitarity_sweep(self):
        results = selftest.run_all(hadamard_factory=selftest.corrupted_hadamard)
        by_name = {check.name: check for check in results}
        sweep = by_name["gate unitarity and commutation sweep"]
        assert not sweep.passed
        assert "hadamard" in sweep.detail
        assert [check.name for check in results if not check.passed] == [sweep.name]

    def test_wrong_joint_register_fails_its_check(self, monkeypatch):
        joint = qrelay.selftest.full_register_chain

        def off_by_one_phase(d, n, psi, path, mode):
            result = joint(d, n, psi, path, mode)
            return replace(result, final=qrelay.gates.apply_1q(result.final, qrelay.gates.pauli_z(d), 0))

        monkeypatch.setattr(qrelay.selftest, "full_register_chain", off_by_one_phase)
        check = selftest.check_joint_register()
        assert not check.passed
        assert "d=2 local" in check.detail

    @pytest.mark.parametrize(
        "module,failing", [(qrelay.chain, "run trial"), (qrelay.cli, "enumerate path")]
    )
    def test_wrong_closed_form_fails_oracle_check(self, monkeypatch, module, failing):
        table = qrelay.chain.fidelity_table
        monkeypatch.setattr(module, "fidelity_table", lambda psi: table(psi)[::-1])
        check = selftest.check_engines_match_oracles()
        assert not check.passed
        assert failing in check.detail

    def test_dropped_deferred_exponent_fails_oracle_check(self, monkeypatch):
        engine = qrelay.chain.run_trajectories
        monkeypatch.setattr(
            qrelay.cli, "run_trajectories", lambda *args: replace(engine(*args), deferred_exponents=None)
        )
        check = selftest.check_engines_match_oracles()
        assert not check.passed
        assert "deferred run trial 0" in check.detail
        assert "local run" not in check.detail


# the sha256 prefix of each report's canonical JSON value, as the indent-2 layout gave it
REPORT_VALUES = {
    "run --d 3 --n 4 --mode deferred --noise 0.9,0.05,0.05 --trials 1000 --seed 7 --state uniform":
        "d181322563be250e",
    "run --d 2 --n 2 --history history.csv": "1dc096b9253977fc",
    "enumerate --d 2 --n 3": "62a73daf6d8cc5ef",
    "run --d 5 --n 6 --mode local --noise 0.6,0.1,0.1,0.1,0.1 --trials 50 --seed 3 --state random":
        "6d9e358f36cb8100",
    "enumerate --d 8 --n 4 --mode local --seed 1 --state random": "61ee1bf1242794f2",
}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestReportRendering:
    @pytest.mark.parametrize("command", REPORT_VALUES, ids=["run-readme", "run-history", "enumerate-readme",
                                                            "run-local-d5", "enumerate-d8"])
    def test_value_pinned_and_one_compact_record_per_line(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.chdir(tmp_path)  # --history history.csv is a relative path
        assert main(command.split()) == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert hashlib.sha256(canonical(report).encode()).hexdigest()[:16] == REPORT_VALUES[command]
        records = report["trials" if report["command"] == "run" else "paths"]
        lines = [line[4:].removesuffix(",") for line in text.splitlines() if line.startswith("    {")]
        assert len(lines) == len(records)
        for line in lines:
            assert line == canonical(json.loads(line))

    def test_sorted_and_stable(self):
        # the record list sorts among the top-level keys and holds one record per line
        text = render_report({"b": 1, "a": {"d": 2, "c": [1.5]}}, "ab", ['{"x":1}', '{"x":[2,3]}'])
        assert text == (
            '{\n  "a": {\n    "c": [\n      1.5\n    ],\n    "d": 2\n  },\n'
            '  "ab": [\n    {"x":1},\n    {"x":[2,3]}\n  ],\n  "b": 1\n}\n'
        )

    def test_records_go_under_the_top_level_key_only(self):
        # a nested key of that name, or a string value that spells its line, is left alone
        report = {"a": {"ab": []}, "b": '\n  "ab": []'}
        assert json.loads(render_report(report, "ab", ['{"x":1}'])) == {**report, "ab": [{"x": 1}]}

    def test_experiment_config_validates_on_build(self):
        from qrelay.chain import ChainConfig, NoiseSpec

        chain = ChainConfig(d=2, n=1, mode=CorrectionMode.DEFERRED_FINAL, noise=NoiseSpec.noiseless(2), seed=0)
        assert ExperimentConfig(chain=chain, trials=1, state="uniform").chain is chain
        with pytest.raises(ValidationError, match="trials:"):
            ExperimentConfig(chain=chain, trials=0, state="uniform")
        with pytest.raises(ValidationError, match="out:"):
            ExperimentConfig(chain=chain, trials=1, state="uniform", out=5)
