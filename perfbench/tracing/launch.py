"""Run ``repro serve`` with span recorders installed (the traced run).

Usage: ``PERFBENCH_SPANS=DIR python perfbench/tracing/launch.py serve ...``
takes the arguments of ``python -m repro``.  The launcher installs the
wrappers of :mod:`spans` in its own process and puts this directory on the
``PYTHONPATH`` its children inherit, so ``sitecustomize`` installs the same
wrappers in every worker that ``repro serve --workers`` spawns.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    existing = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(HERE) if not existing \
        else os.pathsep.join([str(HERE), existing])
    import spans

    if spans.install_from_environment() is None:
        raise SystemExit(f"set {spans.ENV} to the span output directory")
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
