"""``tools/code_lines.py`` counts code, not how it is wrapped."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_an_import_counts_one_line_however_it_is_wrapped():
    one_per_line = ("from .ledger import (\n"
                    "    COLLATERAL,\n"
                    "    ConditionalLedger,\n"
                    "    InsufficientBalance,  # a comment\n"
                    ")\n"
                    "import os, \\\n"
                    "    sys\n")
    one_line = ("from .ledger import COLLATERAL, ConditionalLedger, InsufficientBalance\n"
                "import os, sys\n")
    assert code_lines.code_lines(one_per_line) == code_lines.code_lines(one_line) == 2


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = ('"""A module.\n\nIts docstring."""\n'
              "\n"
              "# a comment\n"
              "def f(x):\n"
              '    """A docstring."""\n'
              "    return (x +\n"
              "            1)\n")
    assert code_lines.code_lines(source) == 3
