"""How far apart two output trees of ``tools/cli_round.py`` are, file by file.

    python tools/round_diff.py OLD NEW

Prints one line for each file that differs between the directories ``OLD``
and ``NEW``, in path order. A file whose text is the same once its numbers
are taken out gives the largest relative change over its numbers, taken in
order: |new - old| / max(|old|, |new|), so 0 for equal numbers and 2 for a
sign flip. Any other difference is a structure change, and a file in one
tree only is named as such. Exits 0 when no file differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

#: a decimal number as the CLI writes them: an int, a float, or either in
#: exponent form, not preceded by a letter, digit, dot or underscore
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def files(root: Path) -> dict:
    """The bytes of every file under ``root``, by relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def relative_change(old: bytes, new: bytes):
    """The largest relative change between the numbers of two texts with
    the same text around their numbers; None when that text differs."""
    old_text, new_text = old.decode("latin-1"), new.decode("latin-1")
    if NUMBER.split(old_text) != NUMBER.split(new_text):
        return None
    largest = 0.0
    for a, b in zip(map(float, NUMBER.findall(old_text)), map(float, NUMBER.findall(new_text))):
        if a != b:
            largest = max(largest, abs(b - a) / max(abs(a), abs(b)))
    return largest


def compare(old_root: Path, new_root: Path) -> list:
    """One line for each file that differs between the two trees."""
    old, new = files(old_root), files(new_root)
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"{path}: only in {old_root}")
        elif path not in old:
            lines.append(f"{path}: only in {new_root}")
        elif old[path] != new[path]:
            change = relative_change(old[path], new[path])
            lines.append(f"{path}: structure change" if change is None
                         else f"{path}: largest relative change {change:.3g}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="the first tree")
    p.add_argument("new", type=Path, help="the second tree")
    args = p.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            p.error(f"{root} is not a directory")
    lines = compare(args.old, args.new)
    print("\n".join(lines) if lines else "no file differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
