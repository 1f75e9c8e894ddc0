"""Command-line front end.

Three subcommands: ``verify`` certifies a code (error-correction conditions
at every site plus hidden marginals), ``recover`` runs seeded damage/repair
trials, and ``share-demo`` splits a random secret over 2n single-qubit
shares and puts it back together.

Reports are JSON with a fixed field order and floats printed with 17
significant digits, so identical configurations produce byte-identical
output.  A measured row passes iff its ``worst_deviation`` is at most the
tolerance (1 - value for the fidelity and purity rows; NaN fails);
``decoder_synthesis`` is a refusal row, never a pass.  Exit status: 0
every row passed, 1 a row failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _quote  # what json.dumps does to a str

import numpy as np

from . import codes as codes_mod
from . import noise, verify
from .gates import circuit_entries, invert_circuit
from .states import NORM_TOL, MessageState, SiteDims, gram_scores
from .verify import (DEFAULT_SEED, DEFAULT_TOLERANCE, DEFAULT_TRIALS, CheckResult,
                     TrialResult)

SEED_ENV_VAR = "ERASURELAB_SEED"


class ConfigError(ValueError):
    pass


def _count(text: str) -> int:
    """A count in its one spelling: plain ASCII digits, with no sign, space,
    underscore or leading zero (not 03, +3, 3_0 or other scripts' digits)."""
    if not (text.isascii() and text.isdigit()) or text != str(n := int(text)):
        raise ValueError(f"{text!r} is not a count in plain decimal digits")
    return n


def parse_channel(text: str) -> noise.ChannelSpec:
    """The --channel value, each count spelled as ``_count`` allows and the leak weight in
    ASCII digits, '.', exponent and signs only.  ``noise.ChannelSpec`` checks every other
    rule on the channel when it is made, before a code is built."""
    kind, _, rest = text.partition(":")
    if kind not in ("pauli", "random", "leak"):
        raise ConfigError(f"unknown channel kind {kind!r}; expected pauli:, random:, or leak:")
    fields = {"pauli_kind": rest}
    if kind != "pauli":
        parts = rest.split(",")
        try:
            if len(parts) not in ((1,) if kind == "random" else (2, 3)):
                raise ValueError("expected random:env_dim or leak:leak_dim,env_dim[,weight]")
            counts = [_count(part) for part in parts[:2]]
            if len(parts) == 3 and parts[2].strip("0123456789.eE+-"):
                raise ValueError(f"{parts[2]!r} is not a weight in plain decimal digits")
            weight = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ConfigError(f"malformed channel spec {text!r}: {exc}") from exc
        if kind == "leak" and counts[0] < 3:
            raise ConfigError("leak dimension must be at least 3")
        fields = ({"env_dim": counts[0]} if kind == "random"
                  else {"leak_dim": counts[0], "env_dim": counts[1], "leak_weight": weight})
    try:
        return noise.ChannelSpec(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_hiding(text: str, lo: int) -> int:
    try:
        n = _count(text.removeprefix("hiding:"))
    except ValueError as exc:
        raise ConfigError(f"malformed code selector {text!r}") from exc
    if not lo <= n <= codes_mod.HIDING_MAX_QUBITS:
        raise ConfigError(f"hiding qubit count {n} out of range "
                          f"{lo}..{codes_mod.HIDING_MAX_QUBITS}")
    return n


def build_code(config: argparse.Namespace) -> codes_mod.CodeSpec:
    if config.code_file is not None:
        return load_code_file(config.code_file)
    text = config.code
    if text == "six":
        return codes_mod.six_qubit_logical_basis()
    if text == "w5":
        return codes_mod.w_code()
    if text.startswith("hiding:"):
        # verify insists on n >= 2 (the Bell pair cannot pass certification);
        # share-demo and recover accept n=1 and report what it can't do
        lo = 2 if config.command == "verify" else 1
        return codes_mod.hiding_code(_parse_hiding(text, lo))
    raise ConfigError(f"unknown code selector {text!r}; expected six, w5, or hiding:n")


def code_from_json_dict(data: dict, label: str = "external") -> codes_mod.CodeSpec:
    try:
        n_sites, dims, raw_basis = data["n_sites"], data["dims"], data["logical_basis"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed code file: {exc}") from exc
    # JSON integers only: int() would truncate 5.9 and accept true or "2"
    if not isinstance(dims, list) or any(type(v) is not int for v in [n_sites, *dims]):
        raise ConfigError("malformed code file: n_sites and dims must be JSON integers")
    if len(dims) != n_sites:
        raise ConfigError(f"dims list has {len(dims)} entries for n_sites={n_sites}")
    if any(d != 2 for d in dims):
        raise ConfigError("only all-qubit external codes are supported")
    try:
        register = SiteDims(dims)
        pairs = np.array(raw_basis, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed code file: {exc}") from exc
    if pairs.ndim != 3 or pairs.shape[1:] != (register.total, 2):
        raise ConfigError(
            f"logical basis has shape {pairs.shape}; expected one row of "
            f"{register.total} [re, im] pairs per logical state"
        )
    # JSON numbers only: float64 would take "0.5" and true
    if any(type(v) not in (int, float) for row in raw_basis for pair in row for v in pair):
        raise ConfigError("malformed code file: amplitudes must be JSON numbers")
    if len(pairs) < 2:
        raise ConfigError("code file must define at least two logical states")
    try:
        return codes_mod.CodeSpec(
            label=label,
            n_physical=n_sites,
            k_logical=max(1, (len(pairs) - 1).bit_length()),
            logical_basis=pairs.view(np.complex128)[..., 0],  # each [re, im] pair as one complex
            message_labels=range(len(pairs)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid code: {exc}") from exc


def load_code_file(path: str) -> codes_mod.CodeSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"cannot read code file {path!r}: {exc}") from exc
    return code_from_json_dict(data, label=path)


def render_json(report: dict) -> str:
    """``_report``'s dict as deterministic JSON: insertion-ordered keys,
    floats at 17 significant digits, two-space indentation.  Each value is
    one flat dict or a list of flat dicts with the same keys."""
    fields = []
    for key, value in report.items():
        if isinstance(value, dict):
            text = _render_dicts([value], "\n    ")[0]
        elif value:
            text = "[\n    " + ",\n    ".join(_render_dicts(value, "\n      ")) + "\n  ]"
        else:
            text = "[]"
        fields.append(f"{_quote(key)}: {text}")
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def _render_dicts(rows, inner: str) -> list[str]:
    """Flat dicts with the same keys in the same order, each as text, from
    one template; ``inner`` is a line break and the indentation of their
    keys.  A column of numbers is formatted there, at ``%.17g`` (which is
    ``format(v, ".17g")``) if it holds a float, else as ints; a column of
    bools or strs is rendered first."""
    specs, columns = [], []
    for key, column in zip(rows[0], zip(*[row.values() for row in rows])):
        if isinstance(column[0], bool):
            spec, column = "%s", ["true" if v else "false" for v in column]
        elif isinstance(column[0], str):
            spec, column = "%s", [_quote(v) for v in column]
        else:
            spec = "%.17g" if any(isinstance(v, float) for v in column) else "%d"
        specs.append(_quote(key) + ": " + spec)
        columns.append(column)
    template = "{" + inner + ("," + inner).join(specs) + inner[:-2] + "}"
    return [template % values for values in zip(*columns)]


def _report(config: argparse.Namespace, checks, trials=()) -> tuple[int, dict]:
    """The exit code, 0 iff every check passed, and the JSON report of the
    ``CheckResult`` rows and ``TrialResult`` trials."""
    report = {
        "meta": {
            "seed": config.seed,
            "code": config.code if config.code_file is None else f"file:{config.code_file}",
            "command": config.command,
            "tolerance": config.tolerance,
        },
        "checks": [{"name": c.name, "pass": bool(c.passed),
                    "worst_deviation": float(c.worst_deviation)} for c in checks],
        "trials": [{"index": i, "fidelity": t.fidelity, "purity": t.purity}
                   for i, t in enumerate(trials)],
    }
    return (0 if all(c.passed for c in checks) else 1), report


def cmd_verify(config: argparse.Namespace) -> tuple[int, dict]:
    return _report(config, verify.certify(build_code(config), config.tolerance).checks)


def recovery_plan(config: argparse.Namespace, code: codes_mod.CodeSpec) -> codes_mod.RecoveryPlan:
    """The plan ``recover`` runs for ``config.pos`` of ``code``: the
    paper's circuits for six, the Clifford circuits for hiding:n with
    n >= 2, and a synthesized decoder for every other code (which refuses
    the Bell pair, hiding:1, with a ``RecoverySynthesisError``)."""
    if config.code == "six":
        return codes_mod.recovery_for(config.pos)
    if config.code.startswith("hiding:") and code.k_logical >= 2:
        return codes_mod.hiding_recovery(code.k_logical, config.pos)
    return verify.synthesize_recovery(code, config.pos, tolerance=config.tolerance)


def cmd_recover(config: argparse.Namespace) -> tuple[int, dict]:
    code = build_code(config)
    if config.pos >= code.n_physical:
        raise ConfigError(f"position {config.pos} out of range for {code.n_physical} sites")
    try:
        config.channel.check_size(code.n_physical)
        plan = recovery_plan(config, code)
    except verify.RecoverySynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a refusal, not a measurement: no decoder exists to measure
        return _report(config, [CheckResult("decoder_synthesis", False, exc.worst_deviation)])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    rng, shape = np.random.default_rng(config.seed), (len(code.message_labels), 2)
    per = verify.TRIAL_CHUNK_AMPS >> code.k_logical  # messages drawn, then normalized at once

    def trials():
        # each trial draws its message, then its channel seed, as a one-by-one loop would
        for start in range(0, config.trials, per):
            z, seeds = zip(*[(rng.standard_normal(shape), int(rng.integers(0, 2**63 - 1)))
                             for _ in range(min(per, config.trials - start))])
            yield from zip(code.message_amplitudes(np.array(z)), seeds)

    try:
        results = verify.run_recovery_trials(code, plan, config.channel, trials())
    except ValueError as exc:
        # a trial that fails a check (a message's or a damaged state's norm,
        # a channel's isometry) is a configuration error, not a measurement
        raise ConfigError(str(exc)) from exc
    checks = [CheckResult.within("min_fidelity", 1.0 - min(r.fidelity for r in results),
                                 config.tolerance),
              CheckResult.within("min_purity", 1.0 - min(r.purity for r in results),
                                 config.tolerance)]
    return _report(config, checks, results)


def cmd_share_demo(config: argparse.Namespace) -> tuple[int, dict]:
    """Encode a random secret as entries (``circuit_entries``), report each share's
    distance from I/2, run the inverse encoder and score the message sites from the Gram
    matrix of their rows, one per held ancilla state (``gram_scores``), with no 2^2n vector
    or 2^n x 2^n matrix.  A state that fails a check (norm, or a marginal's or the Gram
    matrix's Hermiticity, trace or eigenvalue floor) is a configuration error."""
    if not config.code.startswith("hiding:"):
        raise ConfigError("share-demo needs --code hiding:n")
    code = build_code(config)
    n, sites = code.k_logical, code.n_physical
    rng = np.random.default_rng(config.seed)
    if n == 1:
        # the Bell pair only hides a classical bit; a superposition secret
        # would show up in the marginals
        message = MessageState.basis(1, int(rng.integers(2)))
    else:
        message = code.random_message(rng)
    try:
        # the register state message (x) |0...0>, the ancillas following the message sites
        idx, val = circuit_entries(np.arange(2**n) << sites - n, message.amps, code.dims,
                                   code.encoder)
        norm = float(np.linalg.norm(val))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")
        checks = [CheckResult.within(f"marginal_site{s}", dev, config.tolerance)
                  for s, dev in enumerate(verify.site_deviations(idx, val, sites))]

        idx, val = circuit_entries(idx, val, code.dims, invert_circuit(code.encoder))
        # the message sites' amplitudes, one row per ancilla state that holds any
        ancilla = idx & (1 << sites - n) - 1
        held = np.flatnonzero(np.bincount(ancilla))
        branches = np.zeros((len(held), 2**n), dtype=np.complex128)
        branches[np.searchsorted(held, ancilla), idx >> sites - n] = val
        fid, purity = gram_scores(branches, message)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    checks.append(CheckResult.within("joint_reconstruction", 1.0 - fid, config.tolerance))
    return _report(config, checks, [TrialResult(fid, purity)])


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return _count(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Each usage error as one ``error:`` line, exit 2 (subparsers included)."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erasurelab",
        description="Certify and exercise erasure-correcting codes with hidden marginals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # what a subcommand lacks reads as absent
    parser.set_defaults(code_file=None, trials=None, pos=None, channel=None)

    def add_common(p: argparse.ArgumentParser, certify: bool = False) -> None:
        group = p.add_mutually_exclusive_group() if certify else None
        (group or p).add_argument("--code", default="six", help="six | w5 | hiding:n")
        if group is not None:
            group.add_argument("--code-file", default=None, help="JSON code description")
        p.add_argument("--seed", type=_count, default=None,
                       help=f"RNG seed (default {DEFAULT_SEED}, or ${SEED_ENV_VAR})")
        p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")

    p_verify = sub.add_parser("verify", help="run the certification checks on a code")
    add_common(p_verify, certify=True)

    p_recover = sub.add_parser("recover", help="seeded damage/repair trials at one position")
    add_common(p_recover)
    # the only command that samples; verify is exact, share-demo shares one secret
    p_recover.add_argument("--trials", type=_count, default=DEFAULT_TRIALS)
    p_recover.add_argument("--pos", type=_count, required=True, help="damaged site index")
    p_recover.add_argument("--channel", default="random:4",
                           help="pauli:K | random:env_dim | leak:d,env_dim[,weight]")

    p_share = sub.add_parser("share-demo", help="split a secret into 2n opaque shares")
    add_common(p_share)
    p_share.set_defaults(code="hiding:3")
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The one place a run's inputs are checked: resolve the seed, check the
    trial count and the tolerance, and parse --channel, all in place on
    ``args``, which every command then reads.  Every count, the seed
    included, is spelled as ``_count`` allows when it is parsed."""
    if args.seed is None:
        args.seed = _default_seed()
    if args.trials is not None and not 1 <= args.trials <= verify.TRIALS_CAP:
        raise ConfigError(f"trial count {args.trials} outside 1..{verify.TRIALS_CAP}")
    if not 0 < args.tolerance < 1:
        raise ConfigError(f"tolerance must lie in (0, 1), got {args.tolerance!r}")
    if args.channel is not None:
        args.channel = parse_channel(args.channel)
    return args


_COMMANDS = {
    "verify": cmd_verify,
    "recover": cmd_recover,
    "share-demo": cmd_share_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        exit_code, report = _COMMANDS[args.command](_config_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_json(report)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report to {args.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
