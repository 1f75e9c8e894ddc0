"""Command grids, generated inputs and the expected outcome of every command.

Each workload is a fixed list of CLI commands.  The CLI ``--seed`` values
and the two generated code files come from the workload seed, so the same
seed gives the same inputs.  Every command carries the outcome the method
must give, derived from the oracle in ``oracle.py`` (or, for the hiding
codes above the oracle's size, from the paper's theorem), never from a
stored copy of an earlier report.  The oracle's verdicts are computed on
first use, after the timed passes, so set-up time is the program's own.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

CERTIFY_HIDING = range(2, 7)  # hiding:7 (~17 s) and hiding:8 (~240 s) are too slow to repeat
REPAIR_CHANNELS = ("pauli:Y", "random:4", "leak:3,4")
REPAIR_TRIALS = 100
SYNTH_TRIALS = 25
SHARE_HIDING = range(2, 9)
ORACLE_MAX_N = 5  # largest hiding:n whose states the oracle builds in full


@dataclass
class Command:
    argv: list[str]
    kind: str  # "verify", "recover" or "share"
    # makes the oracle's logical basis of the code; None above the oracle's size
    basis: Callable[[], np.ndarray] | None = None
    position: int | None = None
    trials: int = 0
    meta_code: str = ""
    n_sites: int = 0

    @property
    def label(self) -> str:
        return " ".join(self.argv)

    @functools.cached_property
    def verdict(self) -> list[tuple[bool, bool]] | None:
        """Per-site oracle verdicts (correctable, hidden)."""
        return None if self.basis is None else oracle.code_verdict(self.basis())

    @property
    def expected_exit(self) -> int:
        if self.kind == "verify":
            return 0 if all(c and h for c, h in self.verdict) else 1
        if self.kind == "recover":
            return 0 if self.verdict[self.position][0] else 1
        return 0  # every hiding code hides every message (the paper's theorem)


def n_sites(code: str) -> int:
    return {"six": 6, "w5": 5}.get(code) or 2 * int(code.split(":")[1])


def named_basis(code: str) -> np.ndarray:
    if code == "six":
        return oracle.ghz_pair_basis(3)
    if code == "w5":
        return oracle.w5_basis()
    return oracle.ghz_pair_basis(int(code.split(":")[1]))


def write_code_file(path: str, basis: np.ndarray) -> None:
    """The CLI's external code format: one row of [re, im] pairs per state."""
    n = int(basis.shape[1]).bit_length() - 1
    data = {
        "n_sites": n,
        "dims": [2] * n,
        "logical_basis": [[[float(a.real), float(a.imag)] for a in row] for row in basis],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def build(name: str, seed: int, out_dir: str) -> list[Command]:
    """The workload's commands; writes any generated code files to out_dir."""
    cli_seeds = np.random.default_rng([seed, 0])

    def seeded(argv: list[str]) -> list[str]:
        return argv + ["--seed", str(int(cli_seeds.integers(0, 2**31)))]

    if name == "certify":
        return _certify(seed, out_dir, seeded)
    if name == "repair":
        return _repair(seeded)
    return _share(seeded)


def _certify(seed, out_dir, seeded) -> list[Command]:
    commands = []
    for code in ["six", "w5"] + [f"hiding:{n}" for n in CERTIFY_HIDING]:
        commands.append(Command(seeded(["verify", "--code", code]), "verify",
                                functools.partial(named_basis, code), meta_code=code,
                                n_sites=n_sites(code)))
    rng = np.random.default_rng([seed, 1])
    generated = {
        # both properties are invariant under local unitaries, so this passes
        "six_rotated.json": oracle.locally_rotated(oracle.ghz_pair_basis(3), rng),
        # a generic 8-dimensional subspace of 6 qubits corrects nothing
        "random_subspace.json": oracle.random_subspace(6, 8, rng),
    }
    for fname, basis in generated.items():
        path = os.path.join(out_dir, fname)
        write_code_file(path, basis)
        commands.append(Command(seeded(["verify", "--code-file", path]), "verify",
                                functools.partial(np.asarray, basis),
                                meta_code=f"file:{path}", n_sites=6))
    return commands


def _repair(seeded) -> list[Command]:
    six = functools.partial(named_basis, "six")
    commands = []
    for pos in range(6):
        for channel in REPAIR_CHANNELS:
            argv = ["recover", "--code", "six", "--pos", str(pos), "--channel", channel,
                    "--trials", str(REPAIR_TRIALS)]
            commands.append(Command(seeded(argv), "recover", six, pos, REPAIR_TRIALS, "six", 6))
    # codes without hand-made circuits go through the synthesized decoder;
    # hiding:1 (the Bell pair) has none, so recover must refuse it
    for code, pos in (("w5", 2), ("hiding:5", 3), ("hiding:1", 0)):
        argv = ["recover", "--code", code, "--pos", str(pos), "--channel", "random:4",
                "--trials", str(SYNTH_TRIALS)]
        commands.append(Command(seeded(argv), "recover", functools.partial(named_basis, code),
                                pos, SYNTH_TRIALS, code, n_sites(code)))
    return commands


def _share(seeded) -> list[Command]:
    commands = []
    for n in SHARE_HIDING:
        basis = functools.partial(named_basis, f"hiding:{n}") if n <= ORACLE_MAX_N else None
        commands.append(Command(seeded(["share-demo", "--code", f"hiding:{n}"]), "share",
                                basis, meta_code=f"hiding:{n}", n_sites=2 * n))
    return commands


def check_report(cmd: Command, exit_code: int, stdout: str, stderr: str) -> list[str]:
    """Every way the command's outcome disagrees with what the method must give."""
    if exit_code != cmd.expected_exit:
        return [f"exit code {exit_code}, expected {cmd.expected_exit}"]
    try:
        report = json.loads(stdout)
        meta, rows, trials = report["meta"], report["checks"], report["trials"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = []
    seed = int(cmd.argv[cmd.argv.index("--seed") + 1])
    command = "share-demo" if cmd.kind == "share" else cmd.kind
    if meta != {"seed": seed, "code": cmd.meta_code, "command": command,
                "tolerance": oracle.TOLERANCE}:
        problems.append(f"meta {meta}")
    for row in rows:
        dev = row["worst_deviation"]
        if not (np.isfinite(dev) and dev >= 0 and row["pass"] == (dev <= oracle.TOLERANCE)):
            problems.append(f"row {row['name']} pass={row['pass']} deviation={dev}")
    if cmd.kind == "verify":
        problems += _check_verify(cmd, rows, trials)
    elif cmd.kind == "recover":
        problems += _check_recover(cmd, rows, trials, stderr)
    else:
        problems += _check_share(cmd, rows, trials)
    return problems


def _expect_rows(rows, expected: list[tuple[str, bool]]) -> list[str]:
    got = [(r["name"], r["pass"]) for r in rows]
    return [] if got == expected else [f"rows {got}, expected {expected}"]


def _check_verify(cmd, rows, trials) -> list[str]:
    sites = range(cmd.n_sites)
    expected = [(f"kl_general_pos{p}", cmd.verdict[p][0]) for p in sites]
    expected += [(f"erasure_kl_pos{p}", cmd.verdict[p][0]) for p in sites]
    expected += [(f"hiding_site{p}", cmd.verdict[p][1]) for p in sites]
    return _expect_rows(rows, expected) + ([] if trials == [] else ["verify reported trials"])


def _check_recover(cmd, rows, trials, stderr) -> list[str]:
    if not cmd.verdict[cmd.position][0]:
        problems = _expect_rows(rows, [("decoder_synthesis", False)])
        if trials:
            problems.append("trials reported without a decoder")
        if not stderr.startswith("error: "):
            problems.append(f"stderr {stderr!r}")
        return problems
    problems = _expect_rows(rows, [("min_fidelity", True), ("min_purity", True)])
    if [t["index"] for t in trials] != list(range(cmd.trials)):
        problems.append(f"{len(trials)} trials, expected {cmd.trials}")
    # exact recovery at a known erased site: the paper's theorem
    bad = [t for t in trials if not (t["fidelity"] >= 1 - oracle.TOLERANCE
                                     and t["purity"] >= 1 - oracle.TOLERANCE)]
    if bad:
        problems.append(f"{len(bad)} trials below 1 - tolerance, first {bad[0]}")
    return problems


def _check_share(cmd, rows, trials) -> list[str]:
    hidden = [True] * cmd.n_sites if cmd.verdict is None else [h for _, h in cmd.verdict]
    expected = [(f"marginal_site{s}", hidden[s]) for s in range(cmd.n_sites)]
    problems = _expect_rows(rows, expected + [("joint_reconstruction", True)])
    if len(trials) != 1 or not (trials[0]["fidelity"] >= 1 - oracle.TOLERANCE
                                and trials[0]["purity"] >= 1 - oracle.TOLERANCE):
        problems.append(f"trials {trials}")
    return problems


def library_checks(seed: int) -> list[str]:
    """Checks on the library itself, run once outside the timed passes."""
    import erasurelab as el

    problems = []

    def same(what: str, got: np.ndarray, want: np.ndarray) -> None:
        dev = float(np.max(np.abs(got - want)))
        if not dev <= 1e-12:
            problems.append(f"{what} differs from the oracle by {dev:.3e}")

    codes = [("six", el.six_qubit_logical_basis(), oracle.ghz_pair_basis(3), range(8)),
             ("w5", el.w_code(), oracle.w5_basis(), sorted(oracle.W5_PATTERNS))]
    codes += [(f"hiding:{n}", el.hiding_code(n), oracle.ghz_pair_basis(n), range(2**n))
              for n in range(1, ORACLE_MAX_N + 1)]
    for name, code, want, labels in codes:
        same(f"{name} logical basis", np.stack([s.amps for s in code.logical_basis]), want)
        encoded = [code.encode(el.MessageState.basis(code.k_logical, m)).amps for m in labels]
        same(f"{name} encoder", np.stack(encoded), want)

    rng = np.random.default_rng([seed, 2])
    six = oracle.ghz_pair_basis(3)
    if oracle.code_verdict(oracle.locally_rotated(six, rng)) != oracle.code_verdict(six):
        problems.append("oracle verdict changed under local unitaries")

    # the circuit plan for site 3 must not repair damage at site 0
    code = el.six_qubit_logical_basis()
    for _ in range(3):
        message = code.random_message(rng)
        event = el.ErasureEvent(0, el.random_decoherence(int(rng.integers(0, 2**63 - 1))))
        matched = el.run_recovery_trial(code, message, event, el.recovery_for(0))
        wrong = el.run_recovery_trial(code, message, event, el.recovery_for(3))
        if not matched.fidelity >= 1 - oracle.TOLERANCE:
            problems.append(f"matched plan fidelity {matched.fidelity}")
        if not wrong.fidelity < 1 - 1e-6:
            problems.append(f"mismatched plan fidelity {wrong.fidelity} looks exact")
    return problems
