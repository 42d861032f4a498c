"""The stdlib-only layers give the same bytes under every Python at hand.

`describe-layout`, `parse_to_graph` and `BandConfig().fingerprint()` import
no numpy, so they run under any supported interpreter. One script runs
under this interpreter and under each pyenv interpreter of
`OTHER_PYTHONS`, in a subprocess with `PYTHONPATH=src`: `describe-layout`
on the layouts the layout and CLI tests hold (exit code and stdout), a
SHA-256 over `parse_to_graph` of every file of the query golden's
`index_tree` and of seeded sources drawn from the lexer tests' alphabet,
which holds non-ASCII letters and digits (its five columns, or the parse
error, and the lenient lexemes), the default bands' fingerprint and whether
numpy was imported. Every other
interpreter must print this one's bytes; one that is not installed is
skipped with the reason.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import BAD_LAYOUT, GOOD_LAYOUT
from test_codegraph import LEXER_ALPHABET
from test_golden import index_tree
from test_layout import FOUR_FINDINGS, GOLDEN, synthetic_layout

SRC = Path(__file__).resolve().parents[1] / "src"
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
OTHER_PYTHONS = ("3.10.13", "3.12.1", "3.13.0")

SCRIPT = r"""
import contextlib, hashlib, io, json, os, sys, tempfile
from devmux.cli import cli_main
from devmux.codegraph import ParseError, parse_to_graph, tokenize
from devmux.configfile import BandConfig

inputs = json.load(sys.stdin)
out = []
with tempfile.TemporaryDirectory() as tmp:
    for i, layout in enumerate(inputs["layouts"]):
        path = os.path.join(tmp, f"layout{i}.xml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(layout)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["describe-layout", path])
        out.append([code, stdout.getvalue()])
graphs = hashlib.sha256()
for rel, text in sorted(inputs["tree"].items()):
    try:
        graph = parse_to_graph(text)
        graphs.update(json.dumps([rel, graph.labels, graph.names, graph.src, graph.dst, graph.kinds]).encode())
    except ParseError as err:
        graphs.update(json.dumps([rel, str(err)]).encode())
    graphs.update(json.dumps(tokenize(text, strict=False)).encode())
out += [graphs.hexdigest(), BandConfig().fingerprint(), "numpy" in sys.modules]
print(json.dumps(out), end="")
"""


def lexer_sources(n: int = 40) -> dict[str, str]:
    """`n` seeded sources of 1-60 characters of `LEXER_ALPHABET`, and each
    with its characters sorted, so that words, numbers and strings of
    non-ASCII characters form."""
    rng = random.Random(35)
    out = {}
    for i in range(n):
        text = "".join(rng.choices(LEXER_ALPHABET, k=rng.randint(1, 60)))
        out[f"lexer/{i}"] = text
        out[f"lexer/{i}-sorted"] = "".join(sorted(text))
    return out


def run_script(python) -> str:
    inputs = {
        "layouts": [GOLDEN, FOUR_FINDINGS, GOOD_LAYOUT, BAD_LAYOUT, synthetic_layout()[0]],
        "tree": {**index_tree(), **lexer_sources()},
    }
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([str(python), "-c", SCRIPT], input=json.dumps(inputs), capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


@pytest.fixture(scope="module")
def this_python() -> str:
    return run_script(sys.executable)


def test_this_python_imports_no_numpy(this_python):
    layouts = json.loads(this_python)[:5]
    assert [code for code, _ in layouts] == [0, 1, 0, 1, 0]
    assert json.loads(this_python)[-1] is False


@pytest.mark.parametrize("version", OTHER_PYTHONS)
def test_other_python_gives_the_same_bytes(version, this_python):
    python = VERSIONS / version / "bin" / "python"
    if not python.exists():
        pytest.skip(f"Python {version} is not installed at {python}")
    assert run_script(python) == this_python
