"""The compact logical basis: each code keeps (L, |support|) rows and the
sorted support, never a dense (L, 2^n) array.

The oracle is the dense writer the built-in codes used before they wrote
their rows straight into support order: every compact row must be its
support columns bit for bit, and every per-site split must be the dense
gather bit for bit, so reports do not move.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from erasurelab import cli, verify
from erasurelab.cli import main
from erasurelab.codes import CodeSpec, hiding_code, six_qubit_logical_basis, w_code
from conftest import code_to_json_dict

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def dense_ghz_pair_basis(n: int, first: int = 0, last: int | None = None) -> np.ndarray:
    """Logical states indexed 0..2^n-1 (rows ``first:last`` of them): two
    copies of the GHZ block (|u> + s|u~>)/sqrt(2) whose pattern u is the
    message index with its last bit cleared and whose sign s is set by that
    bit.  Each row's 4 entries are products of block amplitudes, exactly as
    a kron of the blocks."""
    h = 1 / math.sqrt(2)
    i = np.arange(2**n)[first:last]
    u = i & ~1
    block = ((u, h), (2**n - 1 - u, np.where(i & 1, -h, h)))  # (pattern, amplitude)
    basis = np.zeros((len(i), 4**n), dtype=np.complex128)
    for a, x in block:
        for b, y in block:
            basis[i - first, a << n | b] = x * y
    return basis


def dense_w5_basis() -> np.ndarray:
    rows = np.zeros((3, 32), dtype=np.complex128)
    for row, pair in enumerate([(0b00001, 0b11110), (0b00100, 0b11011), (0b00010, 0b11101)]):
        rows[row, list(pair)] = 1 / math.sqrt(2)
    return rows


BELL_PAIR = np.array([[1, 0, 0, 1], [1, 0, 0, -1]], dtype=np.complex128) / math.sqrt(2)

# (name, code, oracle rows first:last); hiding:8's dense basis is 256 MiB, so
# the oracle is read in chunks of at most 2^20 amplitudes
BUILT_IN = [("six", six_qubit_logical_basis, lambda f, l: dense_ghz_pair_basis(3)[f:l]),
            ("w5", w_code, lambda f, l: dense_w5_basis()[f:l]),
            ("hiding:1", lambda: hiding_code(1), lambda f, l: BELL_PAIR[f:l])]
BUILT_IN += [(f"hiding:{n}", lambda n=n: hiding_code(n),
              lambda f, l, n=n: dense_ghz_pair_basis(n, f, l)) for n in range(2, 9)]
CHUNK_AMPS = 2**20


@pytest.fixture(scope="module")
def code_files(tmp_path_factory):
    """The benchmark's two generated code files: a locally rotated six-qubit
    code and a random 8-dimensional subspace of 6 qubits."""
    out = tmp_path_factory.mktemp("codes")
    paths = [c.argv[c.argv.index("--code-file") + 1]
             for c in workloads.build("certify", 3, str(out)) if "--code-file" in c.argv]
    assert [Path(p).name for p in paths] == ["six_rotated.json", "random_subspace.json"]
    return paths


def file_oracle(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array(json.load(fh)["logical_basis"]).view(np.complex128)[..., 0]


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros and NaN payloads included


def dense_sectors(basis: np.ndarray, n: int, position: int, columns) -> np.ndarray:
    """The split at ``position`` gathered from the dense basis."""
    bit = 1 << (n - 1 - position)
    hit = np.zeros(2**n, dtype=bool)
    hit[columns & ~bit] = True
    cols = np.flatnonzero(hit)
    return basis[:, np.stack([cols, cols | bit])].reshape(2 * len(basis), -1)


def codes_and_oracles(code_files):
    """(name, code, oracle rows first:last) for every built-in code and both files."""
    pairs = [(name, build(), oracle) for name, build, oracle in BUILT_IN]
    pairs += [(Path(p).name, cli.load_code_file(p), lambda f, l, p=p: file_oracle(p)[f:l])
              for p in code_files]
    return pairs


class TestRowsAreTheSupportColumns:
    def test_rows_and_every_sites_split_match_the_dense_oracle(self, code_files):
        for name, code, oracle in codes_and_oracles(code_files):
            n, n_rows = code.n_physical, len(code.message_labels)
            support = code.support
            nonzero = np.zeros(2**n, dtype=bool)
            sectors = [verify._sectors(code, p, support) for p in range(n)]
            step = max(1, CHUNK_AMPS // 2**n)
            for first in range(0, n_rows, step):
                dense = oracle(first, first + step)
                last = first + len(dense)
                nonzero |= dense.any(axis=0)
                assert_same_bits(code.rows[first:last], dense[:, support])
                for p, split in enumerate(sectors):
                    assert_same_bits(split[2 * first:2 * last], dense_sectors(dense, n, p, support))
            np.testing.assert_array_equal(support, np.flatnonzero(nonzero), err_msg=name)
            assert not code.rows.flags.writeable and not code.support.flags.writeable

    def test_the_full_rest_split_matches_the_dense_gather(self, code_files):
        # the split synthesize_recovery takes, over every rest index
        for name, code, oracle in codes_and_oracles(code_files):
            n = code.n_physical
            if n <= 12:
                dense = oracle(0, None)
                for p in range(n):
                    assert_same_bits(verify._sectors(code, p, np.arange(2**n)),
                                     dense_sectors(dense, n, p, np.arange(2**n)))

    def test_support_sizes(self, code_files):
        sizes = {name: len(code.support) for name, code, _ in codes_and_oracles(code_files)}
        assert sizes == {"six": 16, "w5": 6, "hiding:1": 2,
                         **{f"hiding:{n}": 2 ** (n + 1) for n in range(2, 9)},
                         "six_rotated.json": 64, "random_subspace.json": 64}

    def test_basis_scatters_the_rows_to_the_dense_oracle(self, code_files):
        for name, code, oracle in codes_and_oracles(code_files):
            if code.n_physical <= 12:
                assert_same_bits(code.basis, oracle(0, None))
                assert not code.basis.flags.writeable

    def test_logical_combination_is_the_product_with_the_dense_oracle(self, code_files,
                                                                      monkeypatch):
        # the product runs over |support| columns, not 2^n, so BLAS may round
        # the last bit differently; every CLI report keeps its bytes
        def refuse(self):
            raise AssertionError("logical_combination built the dense basis")

        monkeypatch.setattr(CodeSpec, "basis", property(refuse))
        rng = np.random.default_rng(5)
        for name, code, oracle in codes_and_oracles(code_files):
            if code.n_physical <= 12:
                message = code.random_message(rng)
                want = message.amps[list(code.message_labels)] @ oracle(0, None)
                got = code.logical_combination(message).amps
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15, err_msg=name)
                assert not got[np.setdiff1d(np.arange(2**code.n_physical), code.support)].any()

    def test_columns_reads_zeros_off_the_support(self):
        code = six_qubit_logical_basis()
        dense = dense_ghz_pair_basis(3)
        cols = np.array([[0, 1, 7], [63, 9, 56]])
        assert_same_bits(code.columns(cols), dense[:, cols])


def built(rows, support) -> CodeSpec:
    """A two-qubit code from a compact builder, built at once."""
    code = CodeSpec("compact", 2, 1, lambda: (rows, support), (0, 1))
    _ = code.rows
    return code


class TestCompactBuilderRefusals:
    def test_a_good_builder_passes(self):
        code = built(np.eye(2), [0, 3])
        assert_same_bits(code.basis, np.eye(4, dtype=np.complex128)[[0, 3]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_rows(self, bad):
        rows = np.eye(2, dtype=np.complex128)
        rows[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            built(rows, [0, 3])

    def test_non_orthonormal_rows(self):
        with pytest.raises(ValueError, match="orthonormal"):
            built(np.ones((2, 2)), [0, 3])
        with pytest.raises(ValueError, match="orthonormal"):
            built(np.eye(2) * 1.001, [0, 3])

    @pytest.mark.parametrize("support", [[3, 0], [1, 1], [0, 2, 1]])
    def test_unsorted_or_repeated_support(self, support):
        with pytest.raises(ValueError, match="sorted list of distinct columns"):
            built(np.eye(len(support))[:2], support)

    @pytest.mark.parametrize("support", [[-1, 2], [0, 4], [2, 2**10]])
    def test_out_of_range_support(self, support):
        with pytest.raises(ValueError, match=r"in 0\.\.3"):
            built(np.eye(2), support)

    def test_rows_must_match_the_support_and_labels(self):
        with pytest.raises(ValueError, match="shape"):
            built(np.eye(3)[:2], [0, 3])
        with pytest.raises(ValueError, match="shape"):
            built(np.eye(2)[:1], [0, 3])
        with pytest.raises(ValueError, match="sorted list"):
            built(np.eye(2), [[0, 3]])

    def test_the_builder_is_only_run_when_read(self):
        code = CodeSpec("lazy", 2, 1, lambda: (np.ones((2, 2)), [0, 3]), (0, 1))
        with pytest.raises(ValueError, match="orthonormal"):
            code.support


class TestCodeFileRoundTrip:
    def test_hiding_4_file_has_the_rows_and_report_of_the_built_in(self, tmp_path, capsys):
        code = hiding_code(4)
        path = tmp_path / "hiding4.json"
        path.write_text(json.dumps(code_to_json_dict(code)), encoding="utf-8")
        loaded = cli.load_code_file(str(path))
        np.testing.assert_array_equal(loaded.support, code.support)
        assert_same_bits(loaded.rows, code.rows)

        assert main(["verify", "--code", "hiding:4"]) == 0
        built_in_text = capsys.readouterr().out
        built_in = json.loads(built_in_text)
        assert main(["verify", "--code-file", str(path)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert from_file["checks"] == built_in["checks"]
        # the file's report, under the built-in's meta, renders to the built-in's bytes
        assert cli.render_json({**from_file, "meta": built_in["meta"]}) == built_in_text
