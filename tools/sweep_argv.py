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
independent input errors.  After them come large grids, each at
``--threads 1`` and ``2``: a resolution-30 disc for the colligation, a
600-point ball for each matrix kind under both commands (3 to 10 chunks at
one thread), and a 40-point ball of radius 1.7e308, whose points overflow,
for every kind.  Last come points whose system is finite but whose largest
singular value overflows: one ``--point`` per kind (under both commands for
the matrix kinds), and for each matrix kind a segment from 0 into overflow
under both commands at ``--threads 1`` and ``2``.  Then come long grids, each
at ``--threads 1`` and ``2``: a 10,000-step segment for every kind (under
both commands for the matrix kinds; 3 to 157 chunks), whose colligation
points overflow at its far end, and a 20,000-point ball for the
colligation.  Last come labels whose floats print in every repr form,
each at ``--threads 1``: three scalar ``--point`` values for the colligation,
a 2x2 ``--point`` per matrix kind, and a 13-step segment from ``t_min``
``[-2,-0.0]`` to ``t_max`` ``[3,5e-324]`` for every kind (the matrix kinds'
under both commands).  The paths in it are ``DIR/KIND.json`` as ``DIR`` was
given, so run ``compare_verify.py`` from the same directory.
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
LARGE_GRIDS = {
    "disc": '{"type":"disc","resolution":30,"radius":1.4}',
    "ball": '{"type":"ball","count":600,"seed":2}',
    "overflow": '{"type":"ball","count":40,"seed":4,"radius":1.7e308}',
}
# Entries whose modulus, 2.1e308, exceeds the float range.
_HUGE = [1.5e308, 1.5e308]
_BIG = json.dumps([[[1.7e308, 1.7e308], [1.7e308, -1.7e308]], [[-1.7e308, 1.7e308], [1.7e308, 1.7e308]]])
OVERFLOW_POINTS = {"colligation": json.dumps(_HUGE), "matrix": json.dumps([[_HUGE, [0.0, 0.0]], [[0.0, 0.0], _HUGE]])}
# t = -1 is the point 0; the system is finite at t = -0.5 and 0 and not past them.
OVERFLOW_SEGMENT = '{"type":"segment","base":%s,"direction":%s,"t_min":-1,"t_max":1,"resolution":5}' % (_BIG, _BIG)


# 10,000 steps: 3 chunks at two threads for the colligation, multi and tri
# documents, 10 for the double-coset one.  The colligation's points
# base + t * direction overflow a float for t past about 180.
LONG_GRIDS = {
    "colligation": '{"type":"segment","base":0.5,"direction":[1e306,1e306],"t_min":0,"t_max":200,"resolution":10000}',
    "matrix": '{"type":"segment","base":%s,"direction":%s,"t_min":-1,"t_max":1,"resolution":10000}'
    % (_matrix(2, 0.1), _matrix(2, 0.6)),
    "ball": '{"type":"ball","count":20000,"seed":5,"radius":1.3}',
}

# Points and a segment parameter whose parts include -0.0, 5e-324, 1e16,
# 1.7e308 and -2.5e-10, as labels print them.
LABEL_POINTS = {
    "colligation": ["[-0.0,5e-324]", "[1e16,-2.5e-10]", "-0.0"],
    "matrix": ["[[[-0.0,5e-324],[1e16,-2.5e-10]],[[-0.0,0.0],[1.7e308,-0.0]]]"],
}
_LABEL_SEGMENT = '{"type":"segment","base":%s,"direction":%s,"t_min":[-2,-0.0],"t_max":[3,5e-324],"resolution":13}'
LABEL_SEGMENTS = {
    "colligation": _LABEL_SEGMENT % (0.1, 0.2),
    "matrix": _LABEL_SEGMENT % (_matrix(2, 0.1), _matrix(2, 0.2)),
}


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
    return runs + large_grid_lines(paths) + overflow_lines(paths) + long_grid_lines(paths) + label_lines(paths)


def large_grid_lines(paths: list[str]) -> list[list[str]]:
    """The large grids' command lines, for ``paths`` in kind order; the
    double-coset ones take ``--fixed``."""
    runs = []
    for kind, path in zip(KINDS, paths):
        fixed = ["--fixed", FIXED[1]] if kind == "doublecoset" else []
        if kind == "colligation":
            lines = [("eval", "disc"), ("eval", "overflow")]
        else:
            lines = [(command, grid) for grid in ("ball", "overflow") for command in VARIABLES]
        for (command, grid), threads in itertools.product(lines, ("1", "2")):
            runs.append([command, path, "--threads", threads, "--grid", LARGE_GRIDS[grid], *fixed])
    return runs


def overflow_lines(paths: list[str]) -> list[list[str]]:
    """The command lines at finite systems whose largest singular value
    overflows, for ``paths`` in kind order."""
    runs = []
    for kind, path in zip(KINDS, paths):
        fixed = ["--fixed", FIXED[1]] if kind == "doublecoset" else []
        if kind == "colligation":
            runs.append(["eval", path, "--threads", "1", "--point", OVERFLOW_POINTS[kind]])
            continue
        for command in VARIABLES:
            runs.append([command, path, "--threads", "1", "--point", OVERFLOW_POINTS["matrix"], *fixed])
            for threads in ("1", "2"):
                runs.append([command, path, "--threads", threads, "--grid", OVERFLOW_SEGMENT, *fixed])
    return runs


def long_grid_lines(paths: list[str]) -> list[list[str]]:
    """The long segments' and the one-variable ball's command lines, for
    ``paths`` in kind order."""
    runs = []
    for kind, path in zip(KINDS, paths):
        fixed = ["--fixed", FIXED[1]] if kind == "doublecoset" else []
        if kind == "colligation":
            lines = [("eval", LONG_GRIDS["colligation"]), ("eval", LONG_GRIDS["ball"])]
        else:
            lines = [(command, LONG_GRIDS["matrix"]) for command in VARIABLES]
        for (command, grid), threads in itertools.product(lines, ("1", "2")):
            runs.append([command, path, "--threads", threads, "--grid", grid, *fixed])
    return runs


def label_lines(paths: list[str]) -> list[list[str]]:
    """The command lines whose labels hold every repr form, for ``paths`` in
    kind order."""
    runs = []
    for kind, path in zip(KINDS, paths):
        fixed = ["--fixed", FIXED[1]] if kind == "doublecoset" else []
        shape = "colligation" if kind == "colligation" else "matrix"
        commands = ["eval"] if kind == "colligation" else list(VARIABLES)
        for command in commands:
            for point in LABEL_POINTS[shape]:
                runs.append([command, path, "--threads", "1", "--point", point, *fixed])
            runs.append([command, path, "--threads", "1", "--grid", LABEL_SEGMENTS[shape], *fixed])
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="directory to write the four documents into")
    args = parser.parse_args(argv)
    print(json.dumps(command_lines(write_documents(args.dir))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
