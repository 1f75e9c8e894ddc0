"""The README's python example runs as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_minimal_round_trip_recovers_the_message():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"A minimal round trip:\n\n```python\n(.*?)```", text, re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.fidelity >= 1 - 1e-10
    assert result.purity >= 1 - 1e-10
