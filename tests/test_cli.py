"""CLI behavior: exit codes, JSON shape, determinism, config validation."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from erasurelab import cli, gates, noise, states, verify
from erasurelab import codes as codes_mod
from erasurelab.cli import (
    ConfigError,
    code_from_json_dict,
    main,
    parse_channel,
    render_json,
)
from erasurelab.codes import CodeSpec, six_qubit_logical_basis, w_code
from erasurelab.gates import apply_circuit, invert_circuit
from erasurelab.states import MessageState
from conftest import code_to_json_dict
from test_verify import (build_channel, dense_overlaps, dense_route, leaky_hiding_code,
                         marginal_deviations, reported_norm)

# the benchmark's command grids, imported from its own directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestVerifyCommand:
    def test_six_qubit_code_passes(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--code", "six")
        assert code == 0
        assert report["meta"]["code"] == "six"
        assert report["meta"]["seed"] == 42
        assert report["meta"]["command"] == "verify"
        names = [c["name"] for c in report["checks"]]
        assert names[:6] == [f"kl_general_pos{p}" for p in range(6)]
        assert names[6:12] == [f"erasure_kl_pos{p}" for p in range(6)]
        assert names[12:] == [f"hiding_site{s}" for s in range(6)]
        assert all(c["pass"] for c in report["checks"])
        assert report["trials"] == []

    def test_w5_passes(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--code", "w5")
        assert code == 0
        assert len(report["checks"]) == 5 + 5 + 5

    def test_hiding_cap_is_enforced(self, capsys):
        code, out, err = run(capsys, "verify", "--code", "hiding:9")
        assert code == 2
        assert out == ""
        assert "out of range" in err

    @pytest.mark.parametrize("command", [["verify"], ["recover", "--pos", "0"], ["share-demo"]])
    @pytest.mark.parametrize("selector", ["hiding:\u0663", "hiding:+2", "hiding:03", "hiding: 3"])
    def test_a_selector_has_one_spelling(self, capsys, command, selector):
        code, out, err = run(capsys, *command, "--code", selector)
        assert code == 2
        assert out == ""
        assert err == f"error: malformed code selector {selector!r}\n"

    def test_the_canonical_selector_is_unchanged(self, capsys):
        code, report, err = run_json(capsys, "verify", "--code", "hiding:3")
        assert code == 0 and err == ""
        assert report["meta"]["code"] == "hiding:3"
        args = cli.build_parser().parse_args(["verify", "--code", "hiding:3"])
        config = cli._config_from_args(args)
        want = verify.certify(cli.build_code(config))
        assert [(c["name"], c["pass"], c["worst_deviation"]) for c in report["checks"]] == [
            (c.name, c.passed, c.worst_deviation) for c in want.checks]

    def test_unknown_selector(self, capsys):
        code, _, err = run(capsys, "verify", "--code", "steane")
        assert code == 2
        assert "unknown code selector" in err

    def test_code_file_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "w5.json"
        path.write_text(json.dumps(code_to_json_dict(w_code())))
        code, report, _ = run_json(capsys, "verify", "--code-file", str(path))
        assert code == 0
        assert report["meta"]["code"] == f"file:{path}"

    def test_failing_code_file_gives_exit_one(self, capsys, tmp_path):
        # two basis states differing on one site: orthonormal, so it loads,
        # but it certifies nothing
        doc = {
            "n_sites": 2,
            "dims": [2, 2],
            "logical_basis": [
                [[1, 0], [0, 0], [0, 0], [0, 0]],
                [[0, 0], [1, 0], [0, 0], [0, 0]],
            ],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        code, report, _ = run_json(capsys, "verify", "--code-file", str(path))
        assert code == 1
        failing = [c["name"] for c in report["checks"] if not c["pass"]]
        assert "kl_general_pos1" in failing
        assert "erasure_kl_pos1" in failing

    def test_malformed_code_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert "cannot read code file" in err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf8", "deeply-nested"])
    def test_undecodable_code_file_is_a_bad_configuration(self, capsys, tmp_path, raw):
        path = tmp_path / "undecodable.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read code file") and err.count("\n") == 1

    @pytest.mark.parametrize("part", [0, 1])
    def test_non_finite_amplitude_is_a_bad_configuration(self, capsys, tmp_path, part):
        doc = code_to_json_dict(six_qubit_logical_basis())
        doc["logical_basis"][0][0][part] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning may reach stderr first
    @pytest.mark.parametrize("amplitude", [[1e200, 0], [1e308, 0], [0, -1e308], [1.7e308, 1.7e308]])
    def test_an_overflowing_amplitude_is_a_bad_configuration(self, capsys, tmp_path, amplitude):
        doc = code_to_json_dict(six_qubit_logical_basis())
        doc["logical_basis"][0][0] = amplitude
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err == ("error: invalid code: logical basis is not orthonormal: an amplitude "
                       "has modulus above 1\n")

    def test_nan_in_a_column_outside_the_support_is_a_bad_configuration(self, capsys,
                                                                        tmp_path):
        doc = code_to_json_dict(six_qubit_logical_basis())
        assert all(row[1] == [0.0, 0.0] for row in doc["logical_basis"])  # column 1 is unused
        doc["logical_basis"][3][1][1] = float("nan")
        path = tmp_path / "nan_unused.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: invalid code: logical basis has non-finite amplitudes\n"

    def test_non_integer_sizes_are_a_bad_configuration(self, capsys, tmp_path):
        # read through int(), this was a valid w5 file that passed verify
        doc = code_to_json_dict(w_code())
        doc["n_sites"], doc["dims"] = 5.9, [2.5, 2, 2, 2, 2]
        path = tmp_path / "w5_sizes.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("spelling", ["string", "bool"])
    def test_amplitudes_that_are_not_json_numbers_are_a_bad_configuration(
            self, capsys, tmp_path, spelling):
        # read through float64, the six-qubit file with its real parts as strings
        # ("0.4999999999999999") passed verify, and a two-state file in booleans exited 1
        if spelling == "string":
            doc = code_to_json_dict(six_qubit_logical_basis())
            for row in doc["logical_basis"]:
                for pair in row:
                    pair[0] = repr(pair[0])
        else:
            doc = {"n_sites": 1, "dims": [2],
                   "logical_basis": [[[True, False], [False, False]],
                                     [[False, False], [True, False]]]}
        path = tmp_path / "spelled.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--code-file", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: malformed code file: amplitudes must be JSON numbers\n"

    def test_sampling_cannot_hide_a_small_leak(self, capsys, tmp_path):
        path = tmp_path / "leaky.json"
        path.write_text(json.dumps(code_to_json_dict(leaky_hiding_code())))
        code, report, _ = run_json(capsys, "verify", "--code-file", str(path))
        assert code == 1
        rows = {c["name"]: c for c in report["checks"]}
        assert not rows["hiding_site0"]["pass"]
        assert rows["hiding_site0"]["worst_deviation"] > 4e-10

    def test_code_and_code_file_are_exclusive(self, capsys):
        code, _, err = run(capsys, "verify", "--code", "six", "--code-file", "x.json")
        assert code == 2

    def test_hiding_8_certifies(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--code", "hiding:8")
        assert code == 0
        assert len(report["checks"]) == 48
        assert all(c["pass"] for c in report["checks"])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_full_support_grid_files_render_the_dense_bytes(self, capsys, monkeypatch,
                                                           tmp_path, seed):
        # the benchmark's two generated code files use every column, so the
        # support path must give exactly the bytes of the dense product with
        # the reference row formulas
        files = [c.argv for c in workloads.build("certify", seed, str(tmp_path))
                 if "--code-file" in c.argv]
        assert len(files) == 2
        got = [run(capsys, *argv) for argv in files]
        for argv in files:
            path = argv[argv.index("--code-file") + 1]
            assert len(cli.load_code_file(path).support) == 64
        monkeypatch.setattr(verify, "sector_overlaps", dense_overlaps)
        monkeypatch.setattr(verify, "certify", lambda code, tolerance: verify.VerificationReport(
            tuple(dense_route(code, tolerance))))
        assert [run(capsys, *argv) for argv in files] == got
        assert [code for code, _, _ in got] == [0, 1]  # rotated six passes, random fails


class TestRecoverCommand:
    def test_builtin_plan_pipeline(self, capsys):
        code, report, _ = run_json(
            capsys, "recover", "--pos", "0", "--trials", "4", "--channel", "random:4"
        )
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["min_fidelity", "min_purity"]
        assert all(c["pass"] for c in report["checks"])
        assert len(report["trials"]) == 4
        for i, row in enumerate(report["trials"]):
            assert row["index"] == i
            assert row["fidelity"] >= 1 - 1e-10
            assert row["purity"] >= 1 - 1e-10

    def test_pauli_and_leak_channels(self, capsys):
        for channel in ("pauli:Y", "leak:3,4", "leak:4,2,0.7"):
            code, report, _ = run_json(
                capsys, "recover", "--pos", "3", "--trials", "2", "--channel", channel
            )
            assert code == 0, channel

    def test_synthesized_decoder_for_other_codes(self, capsys):
        code, report, _ = run_json(
            capsys, "recover", "--code", "w5", "--pos", "4", "--trials", "3"
        )
        assert code == 0
        code, report, _ = run_json(
            capsys, "recover", "--code", "hiding:2", "--pos", "1", "--trials", "3"
        )
        assert code == 0

    def test_position_out_of_range(self, capsys):
        code, _, err = run(capsys, "recover", "--pos", "6")
        assert code == 2
        assert "out of range" in err

    def test_bad_channel_spec(self, capsys):
        for channel in ("pauli:Q", "random:zero", "leak:2,4", "leak:3", "foo:1"):
            code, _, err = run(capsys, "recover", "--pos", "0", "--channel", channel)
            assert code == 2, channel

    @pytest.mark.parametrize("channel", ["random:100000", "leak:3,100000", "leak:100000,4"])
    def test_register_cap_is_checked_before_any_channel_is_built(
        self, capsys, monkeypatch, channel
    ):
        def refuse(*args):
            raise AssertionError("haar_unitary ran before the register cap was checked")

        monkeypatch.setattr(noise, "haar_unitary", refuse)
        code, out, err = run(capsys, "recover", "--pos", "0", "--channel", channel)
        assert code == 2
        assert out == ""
        assert "exceeds the cap" in err
        # the stacked channel builder looks the name up there, so the hook is live
        with pytest.raises(AssertionError, match="haar_unitary ran"):
            main(["recover", "--pos", "0", "--channel", channel.replace("100000", "3"),
                  "--trials", "2"])

    @pytest.mark.parametrize("channel", ["random:16384", "leak:32768,1,0.5"])
    def test_haar_matrix_cap_is_checked_before_any_channel_is_built(
        self, capsys, monkeypatch, channel
    ):
        # both damaged registers fit the cap exactly; the channel's own Haar
        # matrix (32768^2 and 32766^2 entries) does not
        def refuse(*args):
            raise AssertionError("haar_unitary ran before its size was checked")

        monkeypatch.setattr(noise, "haar_unitary", refuse)
        code, out, err = run(capsys, "recover", "--code", "six", "--pos", "0",
                             "--channel", channel)
        assert code == 2
        assert out == ""
        assert "Haar matrix size" in err and "exceeds the cap" in err
        with pytest.raises(AssertionError, match="haar_unitary ran"):
            main(["recover", "--pos", "0", "--channel", "leak:3,2,0.5", "--trials", "2"])

    def test_every_check_row_decides_the_exit_code(self, capsys, monkeypatch):
        # a perfect fidelity with an entangled output register is still a failure
        monkeypatch.setattr(
            verify, "run_recovery_trials",
            lambda code, plan, channel, trials: [
                verify.TrialResult(1.0, 0.5) for _ in trials
            ],
        )
        code, report, _ = run_json(capsys, "recover", "--pos", "0", "--trials", "2")
        assert [c["pass"] for c in report["checks"]] == [True, False]
        assert code == 1

    def test_a_row_passes_iff_the_deviation_it_prints_is_within_the_tolerance(self, capsys):
        # the worst fidelity of these trials is 1 - 10 * 2^-53: not below
        # 1 - tolerance once that is rounded, yet 1 - fidelity is above it
        tol = 1.0658141036401502e-15
        code, report, _ = run_json(capsys, "recover", "--code", "w5", "--pos", "2",
                                   "--trials", "50", "--tolerance", repr(tol))
        assert code == 1
        row = report["checks"][0]
        assert row == {"name": "min_fidelity", "pass": False,
                       "worst_deviation": 1.1102230246251565e-15}
        assert min(t["fidelity"] for t in report["trials"]) >= 1.0 - tol
        for row in report["checks"]:
            assert row["pass"] == (row["worst_deviation"] <= tol)

    def test_under_capacity_leak_channel(self, capsys):
        code, _, err = run(
            capsys, "recover", "--pos", "0", "--channel", "leak:3,1,0.5", "--trials", "1"
        )
        assert code == 2
        assert "leaked subspace" in err

    @pytest.mark.parametrize("code_name, pos, channel", [
        # hiding:1 has no decoder to synthesize; hiding:7 has the largest rows and W recover builds
        ("six", 0, "leak:3,1,0.5"), ("hiding:1", 0, "leak:3,1,0.5"), ("hiding:7", 3, "leak:3,1"),
    ])
    def test_an_under_capacity_leak_is_refused_before_the_code_is_used(
            self, capsys, monkeypatch, code_name, pos, channel):
        def never(*args, **kwargs):
            raise AssertionError("the leak channel was not refused first")

        monkeypatch.setattr(CodeSpec, "rows", property(never))
        monkeypatch.setattr(verify, "run_recovery_trials", never)
        monkeypatch.setattr(verify, "synthesize_recovery", never)
        code, out, err = run(capsys, "recover", "--code", code_name, "--pos", str(pos),
                             "--channel", channel)
        assert code == 2 and out == ""
        assert err == ("error: leaked subspace too small for two orthonormal images; "
                       "need (leak_dim - 2) * env_dim >= 2, got 1\n")

    @pytest.mark.parametrize("code_name, pos, channel", [
        ("six", 2, "leak:3,4"), ("six", 5, "random:4"), ("w5", 2, "random:2"),
        ("six", 1, "pauli:Y"), ("hiding:3", 4, "leak:4,2"), ("hiding:5", 9, "random:4"),
        ("six", 0, "leak:3,1,0"), ("w5", 3, "leak:4,1"),
    ])
    def test_rows_are_the_per_trial_path_on_the_same_draws(self, capsys, monkeypatch,
                                                            code_name, pos, channel):
        # fidelity and purity are 1 whatever is drawn, so the messages the
        # draws are normalized to and the stacks the engine is handed are
        # logged too
        drawn, seeds = [], []
        normalize, stack = CodeSpec.message_amplitudes, noise.ChannelSpec.columns
        chunk = verify._trial_chunk

        def logged_messages(self, z):
            amps = normalize(self, z)
            drawn.append(amps)
            return amps

        def logged_columns(self, chunk_seeds):
            seeds.extend(chunk_seeds)
            return stack(self, chunk_seeds)

        stacks = []

        def logged_chunk(code, w, msgs, v, first):
            stacks.append((msgs, v.reshape(len(v), -1, 2)))
            return chunk(code, w, msgs, v, first)

        monkeypatch.setattr(CodeSpec, "message_amplitudes", logged_messages)
        monkeypatch.setattr(noise.ChannelSpec, "columns", logged_columns)
        monkeypatch.setattr(verify, "_trial_chunk", logged_chunk)
        monkeypatch.setattr(verify, "TRIAL_CHUNK_AMPS", 64)  # several chunks of each kind
        code, report, _ = run_json(capsys, "recover", "--code", code_name, "--pos", str(pos),
                                   "--channel", channel, "--trials", "12", "--seed", "17")
        monkeypatch.undo()
        assert code == 0
        assert len(report["trials"]) == 12
        assert len(stacks) > 1 and len(drawn) > 1

        config = cli._config_from_args(cli.build_parser().parse_args(
            ["recover", "--code", code_name, "--pos", str(pos), "--seed", "17", "--trials", "12"]))
        spec = cli.build_code(config)
        plan = cli.recovery_plan(config, spec)
        rng = np.random.default_rng(17)
        messages, expected_seeds, columns = [], [], []
        for i, row in enumerate(report["trials"]):
            # one trial at a time: its (real, imaginary) pairs, normalized
            # as np.linalg.norm measures them, then its channel seed
            z = rng.standard_normal((len(spec.message_labels), 2))
            amps = np.zeros(2**spec.k_logical, dtype=np.complex128)
            amps[list(spec.message_labels)] = z[:, 0] + 1j * z[:, 1]
            message = MessageState(spec.k_logical, amps / np.linalg.norm(amps))
            seed = int(rng.integers(0, 2**63 - 1))
            channel_i = build_channel(parse_channel(channel), seed)
            messages.append(message.amps)
            expected_seeds.append(seed)
            columns.append(channel_i.columns)
            want = verify.run_recovery_trial(spec, message, noise.ErasureEvent(pos, channel_i),
                                             plan)
            assert row["index"] == i
            assert abs(row["fidelity"] - want.fidelity) <= 1e-14
            assert abs(row["purity"] - want.purity) <= 1e-14
        # bitwise: the stacked normalization is the per-trial one
        assert np.array_equal(np.concatenate(drawn), np.stack(messages))
        assert seeds == expected_seeds
        # bitwise: the per-trial loop's draws, stacked in trial order
        assert np.array_equal(np.concatenate([m for m, _ in stacks]), np.stack(messages))
        assert np.array_equal(np.concatenate([v for _, v in stacks]), np.stack(columns))

    @pytest.mark.parametrize("factor", [1.01, np.nan])
    def test_a_channel_changed_after_construction_never_passes(self, capsys, monkeypatch,
                                                                factor):
        stack = noise.ChannelSpec.columns

        def tampered(self, seeds):
            return stack(self, seeds) * factor

        monkeypatch.setattr(noise.ChannelSpec, "columns", tampered)
        code, out, err = run(capsys, "recover", "--pos", "3", "--trials", "3")
        assert code != 0
        assert out == ""
        assert err.startswith("error: trial 0: damaged state norm") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not abs(reported_norm(err, "damaged state") - 1.0) <= 1e-10

    @pytest.mark.parametrize("where", ["message", "channel"])
    def test_nan_in_a_message_or_a_channel_column_exits_2(self, capsys, monkeypatch, where):
        normalize, stack = CodeSpec.message_amplitudes, noise.ChannelSpec.columns

        def nan_message(self, z):
            amps = normalize(self, z).copy()
            amps[1, 0] = np.nan
            return amps

        def nan_column(self, seeds):
            columns = stack(self, seeds).copy()
            columns[1, 0, 0] = np.nan
            return columns

        if where == "message":
            monkeypatch.setattr(CodeSpec, "message_amplitudes", nan_message)
        else:
            monkeypatch.setattr(noise.ChannelSpec, "columns", nan_column)
        code, out, err = run(capsys, "recover", "--pos", "3", "--trials", "3")
        assert code == 2 and out == ""
        what = "message" if where == "message" else "damaged state"
        assert err == (f"error: trial 1: {what} norm nan differs from 1 by more than "
                       f"{states.NORM_TOL}\n")

    @pytest.mark.parametrize("argv", [
        # 512 trials of 2^9 x 2 x 16 damaged amplitudes: an unchunked stack of
        # them alone is 128 MiB; the whole run peaks at about 5 MiB
        ["--code", "hiding:5", "--pos", "3", "--channel", "random:16", "--trials", "512"],
        # two Haar blocks per trial, 32^2 and 16^2 entries: unchunked, the
        # channel stacks of 4096 trials alone are 80 MiB
        ["--code", "six", "--pos", "0", "--channel", "leak:3,16", "--trials", "4096"],
    ])
    def test_trial_memory_is_bounded_whatever_the_trial_count(self, capsys, argv):
        tracemalloc.start()
        try:
            assert main(["recover", *argv]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("code_name, pos", [("hiding:6", 11), ("hiding:7", 3)])
    def test_hiding_codes_beyond_the_synthesis_cap_recover(self, capsys, code_name, pos):
        code, report, _ = run_json(capsys, "recover", "--code", code_name, "--pos", str(pos),
                                   "--trials", "3")
        assert code == 0
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            ("min_fidelity", True), ("min_purity", True)]

    @pytest.mark.parametrize("trials", [str(verify.TRIALS_CAP + 1), "100000000000000000000"])
    def test_a_trial_count_above_the_cap_is_refused_before_anything_is_drawn(
            self, monkeypatch, capsys, trials):
        def never(*args, **kwargs):
            raise AssertionError("the trial count was not refused first")

        monkeypatch.setattr(verify, "run_recovery_trials", never)
        monkeypatch.setattr(CodeSpec, "random_amplitudes", never)
        monkeypatch.setattr(CodeSpec, "message_amplitudes", never)
        monkeypatch.setattr(np.random, "default_rng", never)
        code, out, err = run(capsys, "recover", "--pos", "0", "--trials", trials)
        assert code == 2 and out == ""
        assert err == f"error: trial count {trials} outside 1..{verify.TRIALS_CAP}\n"

    def test_a_trial_count_at_the_cap_is_accepted(self):
        args = cli.build_parser().parse_args(
            ["recover", "--pos", "0", "--trials", str(verify.TRIALS_CAP)])
        assert cli._config_from_args(args).trials == verify.TRIALS_CAP

    @pytest.mark.parametrize("channel", ["pauli:Y", "random:4", "leak:3,4"])
    def test_hiding_8_recovers_at_every_site(self, capsys, channel):
        # W on its held columns is 256 x 2^8 x 2 x 2 amplitudes, 4 MiB; scattered
        # dense it would be 256 x 2^16, 256 MiB
        for pos in range(16):
            tracemalloc.start()
            try:
                code, out, _ = run(capsys, "recover", "--code", "hiding:8", "--pos", str(pos),
                                   "--channel", channel)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            report = json.loads(out)
            assert code == 0 and len(report["trials"]) == 25
            assert [(c["name"], c["pass"]) for c in report["checks"]] == [
                ("min_fidelity", True), ("min_purity", True)]
            assert peak < 32 * 2**20

    def test_a_damaged_register_above_the_cap_is_refused_before_it_is_built(self, capsys):
        # 2^15 x 2 x 64 damaged amplitudes per trial; refused before the code's rows exist
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "recover", "--code", "hiding:8", "--pos", "0",
                                 "--channel", "random:64")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err == "error: damaged register dimension 4194304 exceeds the cap 1048576\n"
        assert peak < 2**20

    @pytest.mark.parametrize("code_name, pos, channel", [
        ("six", 2, "random:4"), ("w5", 1, "leak:3,4"), ("hiding:7", 3, "random:4"),
        ("hiding:8", 0, "pauli:Y"), ("hiding:8", 9, "random:8"),
    ])
    def test_eigvalsh_never_sees_a_matrix_wider_than_the_smaller_side(
            self, capsys, monkeypatch, code_name, pos, channel):
        # rho = x x^H is 2^k wide and x^H x is held * out * env wide; only the smaller is built
        real, shapes, maps = np.linalg.eigvalsh, [], []
        recovery_map = verify._recovery_map

        def record(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        def capture(code, plan):
            maps.append((code, *recovery_map(code, plan)))
            return maps[-1][1:]

        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        monkeypatch.setattr(verify, "_recovery_map", capture)
        code, _, _ = run(capsys, "recover", "--code", code_name, "--pos", str(pos),
                         "--channel", channel)
        assert code == 0 and shapes
        (built, held, _), = maps
        out, env = parse_channel(channel).shape
        width = min(2**built.k_logical, len(held) * out * env)
        assert max(shape[-1] for shape in shapes) == width

    def test_uncorrectable_code_fails_cleanly(self, capsys):
        # the Bell pair cannot correct an erasure; synthesis must refuse and
        # the run must report that as a failed check, not a crash
        code, report, err = run_json(
            capsys, "recover", "--code", "hiding:1", "--pos", "0", "--trials", "1"
        )
        assert code == 1
        assert report["checks"][0]["name"] == "decoder_synthesis"
        assert not report["checks"][0]["pass"]
        assert "overlap structure" in err


class TestShareDemoCommand:
    def test_default_three_qubit_secret(self, capsys):
        code, report, _ = run_json(capsys, "share-demo")
        assert code == 0
        assert report["meta"]["code"] == "hiding:3"
        names = [c["name"] for c in report["checks"]]
        assert names == [f"marginal_site{s}" for s in range(6)] + ["joint_reconstruction"]
        assert all(c["pass"] for c in report["checks"])
        assert len(report["trials"]) == 1
        assert report["trials"][0]["fidelity"] >= 1 - 1e-10

    def test_two_qubit_secret(self, capsys):
        code, report, _ = run_json(capsys, "share-demo", "--code", "hiding:2")
        assert code == 0
        assert len(report["checks"]) == 5

    def test_bell_pair_shares_a_classical_bit(self, capsys):
        code, report, _ = run_json(capsys, "share-demo", "--code", "hiding:1")
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [True, True, True]

    def test_takes_no_trial_count(self, capsys):
        # one secret is shared once; there is nothing to repeat
        code, out, err = run(capsys, "share-demo", "--code", "hiding:3", "--trials", "7")
        assert code == 2
        assert out == ""
        assert "--trials" in err

    def test_requires_a_hiding_selector(self, capsys):
        code, _, err = run(capsys, "share-demo", "--code", "six")
        assert code == 2
        assert "hiding:n" in err

    @pytest.mark.parametrize("n", range(1, 9))
    def test_report_is_the_dense_round_trip(self, capsys, monkeypatch, n):
        # the dense register, encoder, partial traces and inverse the command used to run
        def refuse(*args):
            raise AssertionError("share-demo ran a dense contraction")

        for seed in (1, 2):
            with monkeypatch.context() as mp:
                mp.setattr(gates, "circuit_rows", refuse)
                code, report, _ = run_json(capsys, "share-demo", "--code", f"hiding:{n}",
                                           "--seed", str(seed))
            assert code == 0
            hiding = codes_mod.hiding_code(n)
            rng = np.random.default_rng(seed)
            message = (MessageState.basis(1, int(rng.integers(2))) if n == 1
                       else hiding.random_message(rng))
            encoded = hiding.encode(message)
            restored = apply_circuit(encoded, invert_circuit(hiding.encoder))
            rho = states.partial_trace(restored, tuple(range(n)))
            want = [*marginal_deviations(encoded),
                    1 - states.fidelity_with_pure(rho, message)]
            got = [row["worst_deviation"] for row in report["checks"]]
            assert np.max(np.abs(np.array(got) - np.maximum(want, 0))) <= 1e-15
            assert all(row["pass"] for row in report["checks"])
            assert report["trials"][0]["purity"] == pytest.approx(rho.purity(), abs=1e-15)

    @pytest.mark.parametrize("damage, message", [
        # the encoder's entries: a NaN fails the norm check
        (lambda calls, idx, val: (idx[:1], np.array([np.nan + 0j])), "error: state norm nan"),
        # the inverse's entries: a state of norm 2 fails the message's trace check
        (lambda calls, idx, val: (idx, val * (1 if calls == 1 else 2)), "error: trace"),
    ])
    def test_a_failed_state_check_is_one_error_line(self, capsys, monkeypatch, damage, message):
        real, calls = cli.circuit_entries, []

        def damaged(*args):
            calls.append(args)
            return damage(len(calls), *real(*args))

        monkeypatch.setattr(cli, "circuit_entries", damaged)
        code, out, err = run(capsys, "share-demo", "--code", "hiding:3")
        assert code == 2
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err


class TestDeterminismAndOutput:
    def test_verify_is_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--code", "six")
        _, second, _ = run(capsys, "verify", "--code", "six")
        assert first == second

    def test_recover_is_byte_identical(self, capsys):
        argv = ("recover", "--pos", "2", "--trials", "6", "--channel", "random:3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "verify", "--code", "w5")
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--code", "w5", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text

    def test_out_into_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "verify", "--code", "w5", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        _, report, _ = run_json(capsys, "verify", "--code", "w5")
        assert report["meta"]["seed"] == 7
        # an explicit flag wins over the environment
        _, report, _ = run_json(
            capsys, "verify", "--code", "w5", "--seed", "3"
        )
        assert report["meta"]["seed"] == 3

    @pytest.mark.parametrize("argv", [
        ("recover", "--pos", "0", "--seed", "-1"),
        ("share-demo", "--seed", "-3"),
        ("verify", "--seed", "-1"),
    ])
    def test_negative_seed(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: argument --seed: invalid _count value: {argv[-1]!r}\n"

    def test_negative_seed_from_the_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-4")
        code, out, err = run(capsys, "recover", "--pos", "1")
        assert code == 2
        assert out == ""
        assert err == "error: ERASURELAB_SEED: '-4' is not a count in plain decimal digits\n"

    def test_bad_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "many")
        code, _, err = run(capsys, "verify", "--code", "w5")
        assert code == 2
        assert cli.SEED_ENV_VAR in err

    def test_one_parser_serves_every_command_in_a_process(self, capsys):
        sequence = [
            ("verify", "--code", "w5"),
            ("recover", "--code", "six", "--pos", "2", "--trials", "3", "--channel", "leak:3,2"),
            ("recover", "--pos", "9"),  # a bad configuration in between: exit 2
            ("share-demo", "--code", "hiding:2", "--seed", "5"),
            ("share-demo", "--trials", "3"),  # a usage error: exit 2
            ("verify", "--code-file", "missing.json", "--tolerance", "1e-9"),
            ("recover", "--code", "w5", "--pos", "1", "--trials", "2"),
            ("share-demo",),
            ("verify", "--code", "w5"),
        ]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 2, 0, 0, 0]
        assert cli.build_parser() is cli.build_parser()
        assert [run(capsys, *argv) for argv in sequence] == fresh

    def test_different_seeds_differ(self, capsys):
        _, a, _ = run(capsys, "recover", "--pos", "0", "--trials", "3", "--seed", "1")
        _, b, _ = run(capsys, "recover", "--pos", "0", "--trials", "3", "--seed", "2")
        assert a != b


class TestConfigValidation:
    def test_trials_must_be_positive(self, capsys):
        code, _, err = run(capsys, "recover", "--pos", "0", "--trials", "0")
        assert code == 2

    def test_verify_takes_no_trial_count(self, capsys):
        # verify's certificates are exact, so there is nothing to sample
        code, _, err = run(capsys, "verify", "--trials", "5")
        assert code == 2
        assert "--trials" in err

    @pytest.mark.parametrize("value", ["1", "inf", "nan", "-1e-10"])
    def test_tolerance_must_lie_below_one(self, capsys, value):
        # at inf every deviation would pass, even for a random subspace
        code, out, err = run(capsys, "verify", f"--tolerance={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_tolerance_must_be_positive(self, capsys):
        code, _, err = run(capsys, "verify", "--tolerance", "0")
        assert code == 2

    def test_usage_error_exit_code(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["recover"]) == 2  # --pos is required
        capsys.readouterr()

    @pytest.mark.parametrize("argv, names", [
        ([], "command"),  # no subcommand
        (["recover"], "--pos"),  # --pos is required
        (["recover", "--pos", "0", "--trials", "abc"], "'abc'"),
        (["verify", "--bogus"], "--bogus"),
        (["verify", "--trials", "5"], "--trials 5"),
    ])
    def test_usage_errors_print_one_error_line(self, capsys, argv, names):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert names in err

    @pytest.mark.parametrize("flag, argv", [
        ("--trials", ("recover", "--code", "six", "--pos", "0", "--trials", "1_0")),
        ("--trials", ("recover", "--pos", "0", "--trials", "+3")),
        ("--trials", ("recover", "--pos", "0", "--trials", " 3")),
        ("--pos", ("recover", "--code", "six", "--pos", "\u0663")),
        ("--pos", ("recover", "--pos", "-1")),
        ("--pos", ("recover", "--pos", "03")),
        ("--seed", ("verify", "--code", "six", "--seed", "0042")),
        ("--seed", ("verify", "--code", "six", "--seed", "+7")),
        ("--seed", ("share-demo", "--seed", "4_2")),
        ("--seed", ("recover", "--pos", "0", "--seed", "\u0664")),
    ])
    def test_a_count_flag_has_one_spelling(self, capsys, flag, argv):
        # int() takes each of these; the CLI takes none of them
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: argument {flag}: invalid _count value: {argv[-1]!r}\n"

    @pytest.mark.parametrize("raw", [" 1_0 ", "0042", "+7", "\u0663", "7 ", ""])
    def test_the_seed_env_var_has_one_spelling(self, capsys, monkeypatch, raw):
        monkeypatch.setenv(cli.SEED_ENV_VAR, raw)
        code, out, err = run(capsys, "verify", "--code", "w5")
        assert code == 2
        assert out == ""
        assert err == f"error: ERASURELAB_SEED: {raw!r} is not a count in plain decimal digits\n"

    @pytest.mark.parametrize("argv, key, value", [
        (("recover", "--pos", "0", "--trials", "10"), "trials", 10),
        (("recover", "--pos", "0", "--seed", "0"), "seed", 0),
        (("verify", "--seed", "18446744073709551616"), "seed", 2**64),
    ])
    def test_the_plain_count_spellings_still_parse(self, capsys, argv, key, value):
        code, report, _ = run_json(capsys, *argv)
        assert code == 0
        if key == "seed":
            assert report["meta"]["seed"] == value
        else:
            assert len(report["trials"]) == value

    def test_help_still_prints_the_usage(self, capsys):
        code, out, err = run(capsys, "recover", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: erasurelab recover") and "--channel" in out


def reference_render(value, indent: int = 0) -> str:
    """The renderer as it was before it built its text from a per-level
    indentation string: the oracle for its bytes."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {reference_render(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{reference_render(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


class TestProcessExitStatus:
    """`python -m erasurelab.cli` exits with the status `main` returns."""

    @pytest.mark.parametrize("argv, status", [
        (["verify", "--code", "six"], 0),
        (["recover", "--code", "hiding:1", "--pos", "0"], 1),
        (["verify", "--code", "hiding:9"], 2),
    ])
    def test_one_command_per_exit_status(self, argv, status):
        env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-m", "erasurelab.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == status
        if status == 2:
            assert done.stdout == ""
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        else:
            assert json.loads(done.stdout)["meta"]["command"] == argv[0]


class TestJsonRendering:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_benchmark_report_matches_the_reference(self, capsys, monkeypatch, tmp_path,
                                                          seed):
        reports = []

        def capture(value):
            reports.append(value)
            return render_json(value)

        monkeypatch.setattr(cli, "render_json", capture)
        commands = []
        for name in ("certify", "repair", "share"):
            commands += workloads.build(name, seed, str(tmp_path))
        for command in commands:
            # the benchmark's own verdict on the outcome, rows and trials
            assert workloads.check_report(command, *run(capsys, *command.argv)) == []
        assert len(reports) == len(commands)
        for report in reports:
            assert render_json(report) == reference_render(report) + "\n"

    @pytest.mark.parametrize("deviations", [
        [float("nan")], [float("inf")], [-0.0], [5e-324], [1 - 2**-53],
        [float("nan"), float("inf"), -0.0, 5e-324, 1 - 2**-53, 0.1 + 0.2],
    ], ids=["nan", "inf", "negative-zero", "subnormal", "below-one", "all"])
    @pytest.mark.parametrize("trials", [0, 1, 3])
    def test_report_edge_values_match_the_reference(self, deviations, trials):
        report = rendered_report(deviations, trials=trials)
        assert render_json(report) == reference_render(report) + "\n"

    def test_stable_shape_and_trailing_newline(self):
        report = rendered_report([0.0, 1.5], trials=1)
        text = render_json(report)
        assert text.endswith("}\n")
        assert json.loads(text) == report
        assert '"pass": true' in text and '"pass": false' in text

    def test_floats_roundtrip_at_full_precision(self):
        values = [1.0, 1 - 1e-15, 1 / 3, 2.220446049250313e-16, 0.1 + 0.2]
        report = rendered_report(values, trials=len(values))
        for row, value in zip(report["trials"], values):
            row["fidelity"] = value
        assert json.loads(render_json(report)) == report

    def test_an_empty_trial_list(self):
        text = render_json(rendered_report([0.0]))
        assert text.endswith('  "trials": []\n}\n')

    def test_ints_are_not_rendered_as_floats(self):
        report = rendered_report([0.0], trials=11, seed=2**64)
        text = render_json(report)
        assert f'"seed": {2**64},' in text
        assert '"index": 0,' in text and '"index": 10,' in text
        assert text == reference_render(report) + "\n"

    def test_a_code_file_path_is_quoted_as_json(self, capsys, tmp_path):
        path = tmp_path / 'w5 100% "quoted" \\ \u00e9t\u00e9.json'
        path.write_text(json.dumps(code_to_json_dict(w_code())), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--code-file", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["meta"]["code"] == f"file:{path}"
        assert out == reference_render(report) + "\n"


def rendered_report(deviations, trials=0, seed=42):
    """A report of ``_report``'s shape: one check row per deviation, and
    ``trials`` trial rows, each with an int index."""
    return {
        "meta": {"seed": seed, "code": "six", "command": "recover", "tolerance": 1e-10},
        "checks": [{"name": f"row{i}", "pass": i % 2 == 0, "worst_deviation": d}
                   for i, d in enumerate(deviations)],
        "trials": [{"index": i, "fidelity": 1 - i * 2**-53, "purity": 1.0}
                   for i in range(trials)],
    }


class TestChannelParsing:
    def test_good_specs(self):
        assert parse_channel("pauli:X").pauli_kind == "X"
        assert parse_channel("random:2").env_dim == 2
        leak = parse_channel("leak:4,2,0.25")
        assert (leak.leak_dim, leak.env_dim, leak.leak_weight) == (4, 2, 0.25)
        assert parse_channel("leak:3,4").leak_weight is None

    def test_bad_specs(self):
        for text in ("pauli:W", "random:", "random:0", "leak:3", "leak:2,4",
                     "leak:3,0", "leak:3,4,2.0", "gauss:1", "leak:3,4,x", "random:4,4",
                     "random:-4", "leak:3,4,nan", "leak:3,4,",
                     # no room for two orthonormal leaked images, and a weight not given as 0
                     "leak:3,1", "leak:3,1,0.5", "leak:3,1,1"):
            with pytest.raises(ConfigError):
                parse_channel(text)

    @pytest.mark.parametrize("spelling", [
        "random:4_0", "leak:3,4_0", "leak:3_0,4", "random:+4", "random:\u0661", "random:04",
        "random: 4", "random:4 ", "leak:3,\u0664", "leak:+3,4", "leak:3,4,0.5_0",
        "leak:3,4,\u0660.5", "leak:3,4, 0.5",
    ])
    def test_a_channel_has_one_spelling(self, capsys, spelling):
        # int() and float() take each of these; the CLI takes none of them
        code, out, err = run(capsys, "recover", "--pos", "0", "--trials", "2",
                             "--channel", spelling)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: malformed channel spec {spelling!r}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("spelling, shape", [
        ("random:4", (2, 4)), ("random:10", (2, 10)), ("leak:3,4", (3, 4)),
        ("leak:4,2,0.5", (4, 2)), ("leak:3,4,1e-1", (3, 4)), ("leak:3,4,1", (3, 4)),
        ("leak:3,1,0", (3, 1)), ("leak:4,1", (4, 1)),
    ])
    def test_the_plain_spellings_still_parse(self, spelling, shape):
        assert parse_channel(spelling).shape == shape

    @pytest.mark.parametrize("text, env_dim, leak_dim, weight", [
        ("random:0", 0, 2, 0.0), ("leak:3,0", 0, 3, None), ("leak:4,0,0.5", 0, 4, 0.5),
        ("leak:3,4,1.5", 4, 3, 1.5), ("leak:3,4,-0.5", 4, 3, -0.5), ("leak:4,2,2.0", 2, 4, 2.0),
        ("leak:3,1", 1, 3, None), ("leak:3,1,0.5", 1, 3, 0.5), ("leak:3,1,1", 1, 3, 1.0),
    ])
    def test_each_channel_rule_reads_the_same_everywhere(self, text, env_dim, leak_dim, weight):
        # one rule, one text: from the CLI, from the spec and from the per-seed builder
        with pytest.raises(ConfigError) as parsed:
            parse_channel(text)
        with pytest.raises(ValueError) as made:
            noise.ChannelSpec(env_dim=env_dim, leak_dim=leak_dim, leak_weight=weight)
        with pytest.raises(ValueError) as built:
            if leak_dim == 2:
                noise.random_decoherence(5, env_dim)
            else:
                noise.leakage_decoherence(5, leak_dim, env_dim, weight)
        assert str(parsed.value) == str(made.value) == str(built.value)


class TestCodeFileFormat:
    def test_roundtrip_preserves_the_basis(self):
        code = six_qubit_logical_basis()
        doc = code_to_json_dict(code)
        loaded = code_from_json_dict(doc)
        assert loaded.n_physical == 6
        assert loaded.k_logical == 3
        assert np.array_equal(loaded.basis, code.basis)

    def test_rejects_malformed_documents(self):
        good = code_to_json_dict(w_code())
        for mutation in (
            lambda d: d.pop("n_sites"),
            lambda d: d.__setitem__("dims", [2, 2]),
            lambda d: d.__setitem__("dims", [2, 2, 2, 2, 3]),
            lambda d: d["logical_basis"][0].pop(),
            lambda d: d.__setitem__("logical_basis", d["logical_basis"][:1]),
            lambda d: d["logical_basis"][0][3].pop(),  # a lone [re] amplitude
            lambda d: d.__setitem__("logical_basis", 5),
            lambda d: d.__setitem__("n_sites", 0),
            lambda d: d.__setitem__("n_sites", 5.0),
            lambda d: d.__setitem__("n_sites", True),
            lambda d: d.__setitem__("n_sites", "5"),
            lambda d: d["dims"].__setitem__(1, 2.0),
            lambda d: d["dims"].__setitem__(2, True),
            lambda d: d["dims"].__setitem__(4, "2"),
            lambda d: d.__setitem__("dims", "22222"),
        ):
            doc = json.loads(json.dumps(good))
            mutation(doc)
            with pytest.raises(ConfigError):
                code_from_json_dict(doc)

    def test_rejects_non_orthonormal_basis(self):
        doc = code_to_json_dict(w_code())
        doc["logical_basis"][1] = doc["logical_basis"][0]
        with pytest.raises(ConfigError, match="invalid code"):
            code_from_json_dict(doc)


class TestBasisBuiltOnlyWhenRead:
    @pytest.mark.parametrize("argv, builds", [
        (["verify", "--code", "six"], []),
        (["recover", "--code", "six", "--pos", "1", "--trials", "2"], []),
        (["verify", "--code", "hiding:4"], []),
        (["recover", "--code", "hiding:4", "--pos", "5", "--trials", "2"], []),
        (["share-demo", "--code", "hiding:4"], [4]),
    ])
    def test_only_a_command_that_runs_the_encoder_builds_it(self, monkeypatch, capsys, argv,
                                                             builds):
        calls = []
        real = codes_mod.hiding_encoder
        monkeypatch.setattr(codes_mod, "hiding_encoder", lambda n: calls.append(n) or real(n))
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == builds

    def test_share_demo_never_allocates_the_hiding_8_basis(self, capsys):
        tracemalloc.start()
        try:
            assert main(["share-demo", "--code", "hiding:8"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 64 * 2**20  # the basis alone is 256 x 2^16 complex, 256 MiB

    def test_verify_hiding_8_stays_small(self, capsys):
        tracemalloc.start()
        try:
            assert main(["verify", "--code", "hiding:8"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 64 * 2**20  # the dense basis alone would be 256 MiB

    @pytest.mark.parametrize("name", ["six"] + [f"hiding:{n}" for n in range(2, 9)])
    def test_verify_never_takes_a_dense_overlap_tensor(self, monkeypatch, capsys, name):
        def refuse(*args):
            raise AssertionError("verify took the dense overlap tensor")

        monkeypatch.setattr(verify, "sector_overlaps", refuse)
        assert main(["verify", "--code", name]) == 0
        capsys.readouterr()

    def test_verify_never_builds_the_dense_basis(self, monkeypatch, capsys, tmp_path):
        def refuse(self):
            raise AssertionError("verify built the dense basis")

        path = tmp_path / "w5.json"
        path.write_text(json.dumps(code_to_json_dict(w_code())), encoding="utf-8")
        monkeypatch.setattr(CodeSpec, "basis", property(refuse))
        monkeypatch.setattr(CodeSpec, "logical_basis", property(refuse))
        for argv in (["--code", "six"], ["--code", "w5"], ["--code", "hiding:5"],
                     ["--code-file", str(path)]):
            assert main(["verify", *argv]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, builds", [
        (["share-demo", "--code", "hiding:3"], 0),
        (["recover", "--code", "six", "--pos", "0", "--trials", "5"], 1),
        (["recover", "--code", "hiding:4", "--pos", "5", "--trials", "5"], 1),
        (["verify", "--code", "six"], 1),
        (["verify", "--code", "hiding:4"], 1),
        (["recover", "--code", "w5", "--pos", "2", "--trials", "3"], 1),
    ])
    def test_each_command_checks_the_basis_once_or_never(self, monkeypatch, capsys, argv,
                                                         builds):
        checked = []
        real = CodeSpec._checked

        def counting(self, basis):
            checked.append(self.label)
            return real(self, basis)

        monkeypatch.setattr(CodeSpec, "_checked", counting)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(checked) == builds


class TestBenchmarkView:
    """The benchmark traces the library by name and checks it through the
    public API; a name it cannot find reads as a wrong result, not a skip."""

    def test_every_traced_name_exists(self):
        tracer = spans.Tracer()
        try:
            assert tracer.install() == []
        finally:
            tracer.uninstall()
        assert not hasattr(verify.synthesize_recovery, "__wrapped__")  # restored

    def test_library_checks_pass(self):
        assert workloads.library_checks(1) == []
