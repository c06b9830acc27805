"""Fuzz the command-line contract in-process.

Every command, over the named scenarios and ``custom``, runs with drawn
spectra, ``--tol``, ``--shots``, ``--batches``, ``--forbidden`` and basis
files. Whatever the input, ``cli.main`` must exit 0, 1 or 3 without a
traceback, write nothing to stderr on success, and write exactly one stderr
line on failure.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from contextsim import cli
from contextsim.scenarios import SCENARIOS

COMMANDS = ("expectation", "joint", "sample", "states", "sequential")

EIGENVALUE = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False).map(repr),
)
NOT_A_FINITE_NUMBER = st.sampled_from(["nan", "inf", "-inf", "1e400", "x", "", " ", "1,"])
TOL = st.one_of(
    st.floats(min_value=0.0, max_value=0.5).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-10", "-0.0", "1e300", "abc", ""]),
)
SHOTS = st.one_of(st.integers(-2, 2000).map(str), st.integers(0, 2000).map(str), st.sampled_from(["abc", "1.5"]))
FORBIDDEN = st.one_of(
    st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4)), min_size=1, max_size=4).map(
        lambda cells: ";".join(f"{i},{j}" for i, j in cells)
    ),
    st.text(alphabet="0123456789,;- x", max_size=12),
)
# Weight for well-formed draws, so the success paths run about as often as the errors.
WELL_FORMED = ("ok",) * 4


@st.composite
def spectra(draw, d):
    """d comma-joined eigenvalues, or another length, a repeat or a non-number."""
    values = draw(st.lists(EIGENVALUE, min_size=d, max_size=d, unique_by=float))
    mode = draw(st.sampled_from(WELL_FORMED + ("length", "repeat", "non-number")))
    if mode == "length":
        values = draw(st.lists(EIGENVALUE, min_size=0, max_size=6))
    elif mode == "repeat":
        values[-1] = values[0]
    elif mode == "non-number":
        values[draw(st.integers(0, d - 1))] = draw(NOT_A_FINITE_NUMBER)
    return ",".join(values)


def qr_basis(seed, d):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return [[[float(z.real), float(z.imag)] for z in q[:, k]] for k in range(d)]


@st.composite
def bases(draw, d):
    """A valid QR basis in dimension d, or a ragged, non-pair, string or number entry."""
    basis = qr_basis(draw(st.integers(0, 2**32 - 1)), d)
    mode = draw(st.sampled_from(WELL_FORMED + ("ragged", "non-pair", "string", "number")))
    if mode == "ragged":
        k = draw(st.integers(0, d - 1))
        basis[k] = basis[k][: draw(st.integers(0, d - 1))]
    elif mode == "non-pair":
        basis[draw(st.integers(0, d - 1))][0] = draw(
            st.sampled_from(([1.0], [1.0, 0.0, 0.0], [], "ab", None, [[1, 2], [3, 4]]))
        )
    elif mode == "string":
        return draw(st.sampled_from(("abc", ["abc", "de"], [["ab", "cd"]])))
    elif mode == "number":
        return draw(st.sampled_from((5, 1.5, None, True)))
    return basis


@st.composite
def basis_files(draw, d):
    """A basis-file payload: left/right bases, a contexts list, or a non-object."""
    mode = draw(st.sampled_from(("pair", "pair", "contexts", "non-object")))
    if mode == "pair":
        right_d = draw(st.sampled_from((d, d, d, 3, 4)))
        return {"left": draw(bases(d)), "right": draw(bases(right_d))}
    if mode == "contexts":
        return {"contexts": draw(st.one_of(st.lists(bases(d), max_size=3), bases(d)))}
    return draw(st.sampled_from(([], "basis", 3, None, [[1, 0]])))


def run(argv):
    """Exit code and stderr of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@st.composite
def invocations(draw):
    """argv for one call, with ``{tmp}`` for the output directory, and the
    basis-file payload (None for no file, "missing" for an absent one)."""
    command = draw(st.sampled_from(COMMANDS))
    scenario = draw(st.sampled_from([*SCENARIOS, "custom"]))
    d = SCENARIOS[scenario].dim if scenario in SCENARIOS else draw(st.sampled_from((2, 3, 4)))
    argv = [command, "--scenario", scenario]
    for flag, values in (("--left", spectra(d)), ("--right", spectra(d)), ("--tol", TOL)):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if command == "joint" and (scenario == "custom" or draw(st.booleans())):
        argv.append(f"--forbidden={draw(FORBIDDEN)}")
    if command == "sample":
        argv += [f"--shots={draw(SHOTS)}", f"--batches={draw(st.integers(-2, 10**6))}"]
        argv += draw(st.sampled_from((["--out", "{tmp}/report.json"], ["--csv", "{tmp}/shots.csv"], [])))
    if scenario == "custom":
        basis = draw(st.one_of(basis_files(d), basis_files(d), st.sampled_from((None, "missing"))))
    else:
        basis = None
    return argv, basis


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_cli_exits_0_1_or_3_with_one_error_line(invocation):
    argv, basis = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = [arg.replace("{tmp}", tmp) for arg in argv]
        if basis == "missing":
            argv += ["--basis-file", str(Path(tmp) / "missing.json")]
        elif basis is not None:
            path = Path(tmp) / "basis.json"
            path.write_text(json.dumps(basis))
            argv += ["--basis-file", str(path)]
        code, err = run(argv)
    assert code in (0, 1, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1, err
