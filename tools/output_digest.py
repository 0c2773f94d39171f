#!/usr/bin/env python3
"""Digest of polent's command-line output over a fixed list of commands.

Runs each command in this one process through ``polent.cli.main``, from a
fresh temporary directory, with polent imported from ``src/`` next to this
file. For each command it prints one line: the exit code and the sha256 of
stdout, of stderr and of the CSV the command wrote ("-" when it wrote none),
then the arguments. Two checkouts that print the same lines gave the same
bytes on every command:

    python tools/output_digest.py > after.txt   # in each checkout
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from polent import cli  # noqa: E402

CSV = "out.csv"
COMMANDS = [
    "sweep --solver analytic",
    "sweep --solver numeric",
    "sweep --solver both",
    "sweep --solver numeric --xi2 0.7 --grid 0:10:21,0:4:21",
    "steady --zeta 10 --xi1 2.135",
    "steady --zeta 10 --xi1 2.135 --xi2 0.3 --solver numeric",
    "steady --zeta 0 --xi1 0",
    "steady --zeta 1e9 --xi1 1e4 --xi2 3e3",
    "steady --zeta 0 --xi1 1e100 --solver analytic",
    "steady --zeta 1e308 --xi1 1",
    "steady --zeta 1e200 --xi1 1e100",
    "steady --zeta 10 --xi1 0 --solver numeric",
    "witness --zeta 10 --xi1 2.135",
    "witness --zeta 0 --xi1 0",
    "dynamics",
    "dynamics --zeta 10 --xi1 2.135",
    "dynamics --zeta 10 --xi1 2.135 --sample-every 1",
    "dynamics --zeta 5 --xi1 1 --t-final 40 --sample-every 7",
    "validate --nmax 1",
    "validate --nmax 4",
    "validate --nmax 5",
    "validate --nmax 6",
    "validate --nmax 8",
    "validate --nmax 6 --kappa 40",
    "validate --j 0 --nmax 2 --t-final 2",
    "validate --delta=-1e4 --kappa 1e-3 --alpha-re 1e8 --nmax 6",
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: str) -> str:
    """The exit code and digests of one command, run in the current directory."""
    argv = command.split()
    if argv[0] in ("sweep", "dynamics"):
        argv.append(f"--out={CSV}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    csv = Path(CSV)
    written = _sha(csv.read_bytes()) if csv.exists() else "-"
    csv.unlink(missing_ok=True)
    return (f"exit {code} stdout {_sha(out.getvalue().encode())} stderr {_sha(err.getvalue().encode())} "
            f"csv {written}  {command}")


def main() -> int:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                print(digest(command), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
