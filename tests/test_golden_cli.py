"""The golden CLI table: every fixture command's report, byte for byte.

`golden_cli.json` holds the SHA-256 of stdout and stderr and the exit
status of each `fixture_commands` argv, run with the fixture directory as
the working directory and relative paths, so that the echoed command is
the same on every machine.  A refactor that keeps every report must keep
this table; a change that means to alter a report rewrites the table
with `PYTHONPATH=src python tests/test_golden_cli.py` and says so.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from fibcat import cli

from test_documents_cli import FIXTURES, fixture_commands, fixture_dir  # noqa: F401

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_table(fixture_dir):
    """argv (joined by spaces) -> [stdout digest, stderr digest, status]."""
    table = {}
    here = os.getcwd()
    os.chdir(fixture_dir)
    try:
        for argv in fixture_commands(os.curdir):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            table[" ".join(argv)] = [_digest(out.getvalue()),
                                     _digest(err.getvalue()), code]
    finally:
        os.chdir(here)
    return table


def test_every_fixture_command_reports_as_pinned(fixture_dir):
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = golden_table(fixture_dir)
    assert sorted(got) == sorted(expected)
    changed = [argv for argv in expected if got[argv] != expected[argv]]
    assert not changed, changed


if __name__ == "__main__":
    table = golden_table(FIXTURES)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"{len(table)} commands written to {GOLDEN}\n")
