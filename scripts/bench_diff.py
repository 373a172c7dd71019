"""Side-by-side numbers of two probe-engine bench reports.

Prints every numeric leaf the two reports share — its dotted path, the
old value, the new value and new/old — then the keys present in only
one of them.  It judges nothing: there are no thresholds, and it exits
non-zero only when a report cannot be read.  Typical use, a committed
report against a fresh run::

    git show HEAD:BENCH_probe_engine.json > /tmp/old.json
    python scripts/bench_diff.py /tmp/old.json BENCH_probe_engine.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _children(node) -> Dict[str, object]:
    if isinstance(node, dict):
        return {str(key): value for key, value in node.items()}
    if isinstance(node, list):
        return {f"[{i}]": value for i, value in enumerate(node)}
    return {}


def _join(path: str, key: str) -> str:
    if not path:
        return key
    return path + key if key.startswith("[") else f"{path}.{key}"


def compare(old, new, path: str = "") -> Tuple[List, List[str], List[str]]:
    """``(shared numeric leaves as (path, old, new), paths only in old,
    paths only in new)``; a subtree missing on one side is listed once,
    by its root."""
    shared: List = []
    only_old: List[str] = []
    only_new: List[str] = []
    if _is_number(old) and _is_number(new):
        return [(path, old, new)], only_old, only_new
    old_kids, new_kids = _children(old), _children(new)
    for key, value in old_kids.items():
        if key not in new_kids:
            only_old.append(_join(path, key))
            continue
        sub = compare(value, new_kids[key], _join(path, key))
        shared += sub[0]
        only_old += sub[1]
        only_new += sub[2]
    only_new += [_join(path, key) for key in new_kids if key not in old_kids]
    return shared, only_old, only_new


def _ratio(old: float, new: float) -> str:
    return f"{new / old:.3f}" if old else "n/a"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: bench_diff.py OLD NEW", file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        try:
            with open(name, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"cannot read {name}: {exc}", file=sys.stderr)
            return 1
    shared, only_old, only_new = compare(*reports)
    width = max([len(path) for path, _, _ in shared] + [4])
    print(f"{'path':<{width}}  {'old':>14}  {'new':>14}  {'new/old':>8}")
    for path, old, new in shared:
        print(f"{path:<{width}}  {old:>14.6g}  {new:>14.6g}  {_ratio(old, new):>8}")
    for label, paths in (("OLD", only_old), ("NEW", only_new)):
        print(f"\nonly in {label} ({len(paths)}):")
        for path in paths:
            print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
