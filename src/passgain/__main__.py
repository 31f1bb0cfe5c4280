"""Process entry of ``python -m passgain`` and of the ``passgain`` script.

:func:`run` runs :func:`passgain.cli.main` and, once its exit code is known,
freezes the heap (``gc.freeze()``): the objects that importing numpy and
passgain left behind move out of the collector's reach, so the collection
CPython makes as the interpreter exits no longer walks them.  The process then
exits with that code; atexit handlers and stream flushing still run.
``cli.main(argv)`` called from Python makes no GC call.

Public: run.
"""

import gc
import sys

from .cli import main


def run() -> int:
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
