"""Entry point: ``python3 benchmarks/wall/__main__.py`` (the form
``BENCHMARK.json`` names) or ``python -m benchmarks.wall``.

Both forms must work from a bare checkout with no ``PYTHONPATH``, so
the repository root and ``src/`` are put on ``sys.path`` here.
"""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if sys.path and os.path.abspath(sys.path[0]) == _HERE:
    # Run as a script: this directory would shadow stdlib module names.
    del sys.path[0]
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.wall.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
