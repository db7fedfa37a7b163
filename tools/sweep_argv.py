"""Write a cross-product corpus of ``eval`` and ``surface`` command lines.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/sweep_argv.py DIR > runs.json
    python3 tools/compare_verify.py SRC_A SRC_B --argv runs.json

``DIR`` is made if it does not exist, and one document of each kind is
written into it as ``KIND.json`` (what ``colligations random KIND --seed 3``
writes).  The JSON list printed on stdout holds one command line per
combination of the command (``eval`` or ``surface``), the document, and one
value of each of ``--grid``, ``--point``, ``--fixed`` and ``--variable``,
where each flag may also be absent; every line runs with ``--threads 1``.
The values mix valid arguments with a wrong size, a wrong kind of grid,
an empty grid and text that is not JSON, so most lines fail, many with two
independent input errors.  The paths in it are ``DIR/KIND.json`` as ``DIR``
was given, so run ``compare_verify.py`` from the same directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os

from colligations.documents import KINDS, emit_document, random_document


def _matrix(n: int, scale: float) -> str:
    """The ``n``x``n`` diagonal matrix ``scale * I`` as JSON."""
    return json.dumps([[[scale if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)])


_SEGMENT = '{"type":"segment","base":%s,"direction":%s,"t_min":0,"t_max":1,"resolution":3}'
GRIDS = [
    None,
    '{"type":"ball","count":3,"seed":1}',
    '{"type":"ball","count":0}',
    '{"type":"disc","resolution":3,"radius":0.5}',
    _SEGMENT % (_matrix(2, 0.1), _matrix(2, 0.2)),
    _SEGMENT % (_matrix(1, 0.1), _matrix(2, 0.2)),
    "not json",
]
POINTS = [None, "0.5", _matrix(2, 0.5), _matrix(1, 0.5), "{"]
FIXED = [None, _matrix(2, 0.3), _matrix(1, 0.3), "{"]
VARIABLES = {"eval": [None, "z", "S", "R"], "surface": [None, "S", "R"]}


def write_documents(directory: str) -> list[str]:
    """Write ``KIND.json`` for every kind into ``directory``; the paths, in kind order."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for kind in KINDS:
        path = os.path.join(directory, f"{kind}.json")
        with open(path, "w", encoding="utf-8") as out:
            out.write(emit_document(random_document(kind, 3)))
        paths.append(path)
    return paths


def command_lines(paths: list[str]) -> list[list[str]]:
    runs = []
    for command, variables in VARIABLES.items():
        for path, grid, point, fixed, variable in itertools.product(paths, GRIDS, POINTS, FIXED, variables):
            argv = [command, path, "--threads", "1"]
            for flag, value in (("--grid", grid), ("--point", point), ("--fixed", fixed), ("--variable", variable)):
                if value is not None:
                    argv += [flag, value]
            runs.append(argv)
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="directory to write the four documents into")
    args = parser.parse_args(argv)
    print(json.dumps(command_lines(write_documents(args.dir))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
