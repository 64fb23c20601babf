"""SHA-256 digests of every CLI artifact, for byte-identity checks.

Usage: python scripts/artifact_digests.py CONFIG... --out DIR [--threads N]

Runs every CLI command on each config, each command in its own directory
DIR/<config stem>/<command>, and prints one line per artifact written:

    <config> <command> <artifact> <sha256>

A command that stops before writing anything (an infeasible 'fit', say)
prints no line. The CLI's own messages go to stderr, followed by one
``[digests] <config> <command>: exit N`` line (or ``raised <Error>`` with the
traceback when the command crashes). The stdout of two checkouts, and their
``[digests]`` lines, can be compared with diff.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import traceback

from kwavelab.cli import COMMANDS, main as kwavelab_main


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("configs", nargs="+", metavar="CONFIG")
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()
    stems = [os.path.splitext(os.path.basename(c))[0] for c in args.configs]
    if len(set(stems)) != len(stems):
        parser.error("config file names must differ")
    threads = [] if args.threads is None else ["--threads", str(args.threads)]
    for config, stem in zip(args.configs, stems):
        for command in COMMANDS:
            out = os.path.join(args.out, stem, command)
            if os.path.exists(out) and os.listdir(out):
                parser.error(f"{out} is not empty")
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    code = kwavelab_main([command, "--config", config, "--out", out, *threads])
                status = f"exit {code}"
            except Exception as exc:  # a crash in one command must not hide the others
                traceback.print_exc()
                status = f"raised {type(exc).__name__}"
            print(f"[digests] {config} {command}: {status}", file=sys.stderr)
            if os.path.isdir(out):
                for name in sorted(os.listdir(out)):
                    print(f"{config} {command} {name} {digest(os.path.join(out, name))}",
                          flush=True)
