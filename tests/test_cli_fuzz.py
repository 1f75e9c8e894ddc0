"""Fuzzing of the CLI boundary: malformed code files and channel specs.

Whatever the document or spec, ``main`` returns 0, 1 or 2 without raising
and prints no traceback.  A code file carrying a non-finite amplitude never
passes, and one whose ``n_sites`` or ``dims`` holds anything but JSON
integers, or whose amplitudes hold anything but JSON numbers, exits 2.
Channel dimensions stay at most 512, and every Haar matrix is checked
against the dimension cap before it is drawn, so a missing cap fails the
test instead of allocating.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erasurelab import noise, verify
from erasurelab.cli import ConfigError, code_from_json_dict, main
from erasurelab.codes import hiding_code, six_qubit_logical_basis, w_code
from erasurelab.states import DEFAULT_DIMENSION_CAP
from conftest import code_to_json_dict
from test_verify import dense_overlaps, dense_route

BASE_DOCS = [json.dumps(code_to_json_dict(code)) for code in (hiding_code(1), w_code())]
NON_FINITE = [math.nan, math.inf, -math.inf]
# sizes that int() would have truncated or accepted
NON_INTEGERS = st.one_of(st.floats(-2, 24), st.booleans(), st.sampled_from([2.0, 2.5, "2", None]))
# applied in this order, so that value edits still find the pair they address
MUTATIONS = ("non_finite", "non_orthonormal", "not_a_number", "pair_length", "nesting",
             "n_sites")


def run_main(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@st.composite
def code_documents(draw):
    """(document, whether it holds a non-finite amplitude, whether a size is
    not a JSON integer or an amplitude not a JSON number)."""
    doc = json.loads(draw(st.sampled_from(BASE_DOCS)))
    basis = doc["logical_basis"]
    i = draw(st.integers(0, len(basis) - 1))
    j = draw(st.integers(0, len(basis) - 1))
    a = draw(st.integers(0, len(basis[0]) - 1))
    chosen = draw(st.sets(st.sampled_from(MUTATIONS), min_size=1))
    non_finite = wrong_type = False
    for mutation in (m for m in MUTATIONS if m in chosen):
        if mutation == "non_finite":
            basis[i][a][draw(st.integers(0, 1))] = draw(st.sampled_from(NON_FINITE))
            non_finite = True
        elif mutation == "non_orthonormal":
            how = draw(st.sampled_from(["scale", "mix", "copy"]))
            if how == "copy":
                basis[j] = basis[i]
            else:
                factor = draw(st.floats(-2, 2, allow_nan=False))
                if how == "scale":
                    basis[i] = [[factor * re, factor * im] for re, im in basis[i]]
                else:
                    basis[i] = [[re + factor * re2, im + factor * im2]
                                for (re, im), (re2, im2) in zip(basis[i], basis[j])]
        elif mutation == "not_a_number":
            pair, part = basis[i][a], draw(st.integers(0, 1))
            # float64 takes each of these; the loader must not
            pair[part] = draw(st.one_of(st.just(repr(pair[part])), st.booleans(),
                                        st.floats().map(repr)))
            wrong_type = True
        elif mutation == "pair_length":
            basis[i][a] = basis[i][a][:1] if draw(st.booleans()) else basis[i][a] + [0.0]
        elif mutation == "nesting":
            how = draw(st.sampled_from(["flatten_row", "wrap_pair", "scalar_pair",
                                        "drop_level", "not_a_list"]))
            if how == "flatten_row":
                basis[i] = basis[i][a]
            elif how == "wrap_pair":
                basis[i][a] = [basis[i][a]]
            elif how == "scalar_pair":
                basis[i][a] = basis[i][a][0]
            elif how == "drop_level":
                doc["logical_basis"] = basis[i]
            else:
                doc["logical_basis"] = draw(st.sampled_from(["abc", 5, {"x": 1}, None]))
        else:
            doc["n_sites"] = draw(st.one_of(
                st.integers(-2, 24),
                st.sampled_from([math.inf, -math.inf, math.nan, [2],
                                 float(doc["n_sites"]), doc["n_sites"] + 0.9]),
                NON_INTEGERS,
            ))
            if draw(st.booleans()):
                doc["dims"] = draw(st.lists(st.one_of(st.integers(-1, 4), NON_INTEGERS),
                                            max_size=24))
            wrong_type |= any(type(v) is not int for v in [doc["n_sites"], *doc["dims"]])
    return doc, non_finite, wrong_type


@settings(max_examples=150, deadline=None)
@given(code_documents())
def test_code_file_fuzz(case):
    doc, non_finite, wrong_type = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = run_main(["verify", "--code-file", path, "--out", os.devnull])
    assert_clean_exit(code, err)
    if non_finite:
        assert code != 0
    if wrong_type:
        assert code == 2


@st.composite
def sparse_bases(draw):
    """Orthonormal rows on a random subset of the columns: random rows (which
    fail nearly every row), or a built-in code moved by X on a random set of
    sites (which passes every row)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        columns = rng.choice(2**n, draw(st.integers(2, 2**n)), replace=False)
        n_rows = draw(st.integers(2, min(len(columns), 8)))
        z = rng.standard_normal((len(columns), n_rows, 2)) @ [1, 1j]
        basis = np.zeros((n_rows, 2**n), dtype=np.complex128)
        basis[:, columns] = np.linalg.qr(z)[0].T
        return basis
    code = draw(st.sampled_from([six_qubit_logical_basis(), w_code(), hiding_code(2)]))
    flips = int(rng.integers(2**code.n_physical))
    return code.basis[:, np.arange(2**code.n_physical) ^ flips]


def code_document(basis) -> dict:
    n = basis.shape[1].bit_length() - 1
    return {"n_sites": n, "dims": [2] * n,
            "logical_basis": [[[a.real, a.imag] for a in row] for row in basis.tolist()]}


def verify_rows(basis) -> tuple[int, list]:
    """Exit code and (name, pass, deviation) rows of ``verify`` on a code file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(code_document(basis), fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--code-file", path])
    rows = json.loads(out.getvalue())["checks"] if code != 2 else []
    return code, [(r["name"], r["pass"], r["worst_deviation"]) for r in rows]


def dense_rows(basis) -> tuple[int, list]:
    """``verify_rows`` from one dense split over every rest index per site."""
    try:
        code = code_from_json_dict(code_document(basis))
    except ConfigError:
        return 2, []
    with mock.patch.object(verify, "sector_overlaps", dense_overlaps):
        rows = dense_route(code)
    return int(not all(r.passed for r in rows)), [(r.name, r.passed, r.worst_deviation)
                                                  for r in rows]


@settings(max_examples=60, deadline=None)
@given(sparse_bases(), st.data())
def test_sparse_code_files_match_the_dense_product(basis, data):
    # a nudge inside the support usually breaks the Gram check (exit 2); one
    # outside adds a column to the support, which the certificate must see
    nudged = basis.copy()
    nudged[data.draw(st.integers(0, len(basis) - 1)),
           data.draw(st.integers(0, basis.shape[1] - 1))] += 1e-6
    for rows in (basis, nudged):
        got, want = verify_rows(rows), dense_rows(rows)
        assert got[0] == want[0]
        assert [r[:2] for r in got[1]] == [r[:2] for r in want[1]]
        assert all(abs(g[2] - w[2]) <= 1e-12 for g, w in zip(got[1], want[1]))


NUMBER_FIELDS = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["", "0", "512", "1e3", "nan", "inf", "x", " 4", "2.0"]),
)
WEIGHTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "", "0", "1", "0.5"]),
)


@st.composite
def channel_specs(draw):
    kind = draw(st.sampled_from(["pauli", "random", "leak", "", "gauss", "LEAK"]))
    fields = draw(st.lists(NUMBER_FIELDS, max_size=3))
    if kind == "pauli":
        fields.insert(0, draw(st.sampled_from(["I", "X", "Y", "Z", "W", "", "XY"])))
    if kind == "leak" and draw(st.booleans()):
        fields.append(draw(WEIGHTS))
    separator = draw(st.sampled_from([":", ""]))
    return kind + separator + ",".join(fields)


@settings(max_examples=120, deadline=None)
@given(channel_specs())
@example("leak:512,64,0.5")  # the damaged register fits the cap; the leak block does not
@example("random:512")  # at the cap exactly: runs
def test_channel_spec_fuzz(spec):
    real_haar = noise.haar_unitary

    def capped_haar(dim, rng, *columns):
        assert dim * dim <= DEFAULT_DIMENSION_CAP, f"haar_unitary({dim}) over the cap"
        return real_haar(dim, rng, *columns)

    with mock.patch.object(noise, "haar_unitary", capped_haar):
        code, err = run_main(["recover", "--code", "six", "--pos", "0", "--trials", "1",
                              "--channel", spec, "--out", os.devnull])
    assert_clean_exit(code, err)
