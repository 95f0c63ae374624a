"""The accelerator model's outputs, pinned byte for byte.

``repro experiments`` (every paper table, figure and ablation) and the
``schedule --json`` / ``simulate --json`` views of one workload are pure
functions of the source tree.  A change that moves any number in them
must update a pin here and say which numbers moved and why; a refactor
of the compiler, simulator or report code must leave all three alone.

The floats in these texts are ``repr``s of sums, so the pins hold for
the CPython whose ``sum()`` adds floats left to right (3.11 and older).
"""

import hashlib

import pytest

from repro.cli import main
from repro.experiments.runner import run_all

#: sha256 of ``run_all()``, the text ``repro experiments`` prints.
RUN_ALL_SHA256 = "372e3d3ae8dd4cbe56721ecfb1cb04dca4fb38803c58cf624a253137c12161a2"

#: sha256 of the stdout of each CLI call.
CLI_SHA256 = {
    ("schedule", "--workload", "Factorial", "--json"):
        "53061c792af4ba0a09caec88387bb379de82b67b89dfa0f243af13b83308ec9f",
    ("simulate", "--workload", "Factorial", "--json"):
        "18408da339e02f098bf34d7c7ba0356b60d29015baff3277d6682ffd082bcaeb",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_experiments_report_is_pinned():
    assert _sha256(run_all()) == RUN_ALL_SHA256


@pytest.mark.parametrize("argv", sorted(CLI_SHA256), ids=lambda argv: argv[0])
def test_cli_json_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out) == CLI_SHA256[argv]
