"""Install the span recorders in processes started by a traced server.

Only the traced run puts this directory on ``PYTHONPATH`` (see
``launch.py``), and :func:`spans.install_from_environment` does nothing
unless ``PERFBENCH_SPANS`` is set.
"""

import spans

spans.install_from_environment()
